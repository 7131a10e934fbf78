//! Ready-made policy constructors for the paper's experiment matrix.
//!
//! Each function returns a boxed [`ReplacementPolicy`] ready to drop into
//! [`sdbp_cache::Cache::with_policy`]. The names mirror Table V of the
//! paper ("Sampler", "TDBP", "CDBP", "Random Sampler", ...).

use crate::config::SdbpConfig;
use crate::predictor::SamplingPredictor;
use sdbp_cache::policy::{Lru, ReplacementPolicy};
use sdbp_cache::CacheConfig;
use sdbp_predictors::counting::Lvp;
use sdbp_predictors::dbrb::{DbrbConfig, DeadBlockReplacement};
use sdbp_predictors::reftrace::RefTrace;
use sdbp_replacement::Random;

/// Seed used for the randomized default policies in the random-baseline
/// experiments; fixed so runs are reproducible.
const RANDOM_SEED: u64 = 0x5db9;

fn lru(llc: CacheConfig) -> Lru {
    Lru::new(llc.sets, llc.ways)
}

fn random(llc: CacheConfig) -> Random {
    Random::new(llc, RANDOM_SEED)
}

/// "Sampler": SDBP-driven dead block replacement and bypass over default
/// LRU — the paper's headline configuration.
pub fn sampler_lru(llc: CacheConfig) -> Box<dyn ReplacementPolicy> {
    sampler_with_config(llc, SdbpConfig::paper())
}

/// "Random Sampler": SDBP over a default randomly-replaced cache.
pub fn sampler_random(llc: CacheConfig) -> Box<dyn ReplacementPolicy> {
    Box::new(DeadBlockReplacement::new(
        llc,
        random(llc),
        SamplingPredictor::paper(llc),
        DbrbConfig::default(),
    ))
}

/// An SDBP variant (for the Figure 6 ablation and sweeps) over default LRU.
pub fn sampler_with_config(llc: CacheConfig, config: SdbpConfig) -> Box<dyn ReplacementPolicy> {
    Box::new(DeadBlockReplacement::new(
        llc,
        lru(llc),
        SamplingPredictor::new(config, llc),
        DbrbConfig::default(),
    ))
}

/// "TDBP": reftrace-driven dead block replacement and bypass, default LRU.
pub fn tdbp(llc: CacheConfig) -> Box<dyn ReplacementPolicy> {
    Box::new(DeadBlockReplacement::new(
        llc,
        lru(llc),
        RefTrace::new(llc),
        DbrbConfig::default(),
    ))
}

/// "CDBP": counting-predictor (LvP) DBRB, default LRU.
pub fn cdbp(llc: CacheConfig) -> Box<dyn ReplacementPolicy> {
    Box::new(DeadBlockReplacement::new(
        llc,
        lru(llc),
        Lvp::new(llc),
        DbrbConfig::default(),
    ))
}

/// "Random CDBP": counting-predictor DBRB over default random replacement.
pub fn cdbp_random(llc: CacheConfig) -> Box<dyn ReplacementPolicy> {
    Box::new(DeadBlockReplacement::new(
        llc,
        random(llc),
        Lvp::new(llc),
        DbrbConfig::default(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbp_cache::policy::Access;
    use sdbp_cache::Cache;
    use sdbp_trace::{AccessKind, BlockAddr, Pc};

    #[test]
    fn constructors_produce_expected_names() {
        let llc = CacheConfig::llc_2mb();
        assert_eq!(sampler_lru(llc).name(), "LRU+sampler-dbrb");
        assert_eq!(sampler_random(llc).name(), "Random+sampler-dbrb");
        assert_eq!(tdbp(llc).name(), "LRU+reftrace-dbrb");
        assert_eq!(cdbp(llc).name(), "LRU+counting-dbrb");
        assert_eq!(cdbp_random(llc).name(), "Random+counting-dbrb");
        assert_eq!(
            sampler_with_config(llc, SdbpConfig::dbrb_alone()).name(),
            "LRU+pc-only-dbrb"
        );
    }

    #[test]
    fn sampler_policy_runs_end_to_end() {
        let llc = CacheConfig::new(128, 4);
        let mut cache = Cache::with_policy(llc, sampler_lru(llc));
        for i in 0..20_000u64 {
            let a = Access::demand(
                Pc::new(0x400 + (i % 5) * 4),
                BlockAddr::new(i % 1000),
                AccessKind::Read,
                0,
            );
            cache.access(&a);
        }
        let s = cache.stats();
        assert_eq!(s.accesses, 20_000);
        assert_eq!(s.hits + s.misses, 20_000);
        assert_eq!(s.predictions, 20_000, "predictor consulted on every access");
    }

    #[test]
    fn sampler_bypasses_streaming_workload() {
        // Single-touch blocks: after sampler training, dead-on-arrival
        // blocks bypass the LLC.
        let llc = CacheConfig::new(128, 4);
        let mut cache = Cache::with_policy(llc, sampler_lru(llc));
        for i in 0..200_000u64 {
            let a = Access::demand(Pc::new(0x400), BlockAddr::new(i), AccessKind::Read, 0);
            cache.access(&a);
        }
        let s = cache.stats();
        assert!(
            s.bypasses > 100_000,
            "streaming blocks should bypass after training, got {} bypasses",
            s.bypasses
        );
    }
}
