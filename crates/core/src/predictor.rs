//! The sampling dead block predictor, as a
//! [`sdbp_predictors::DeadBlockPredictor`].
//!
//! In the paper's configuration ([`SdbpConfig::paper`]) all training state
//! lives in the sampler and the skewed tables; the LLC itself carries only
//! the one dead bit per block that the DBRB policy maintains. The PC-only
//! ablation mode (`sampler: None`) instead trains on every access and
//! eviction, which requires a 15-bit last-touch PC per cache line — exactly
//! the metadata burden the sampler eliminates.

use crate::config::SdbpConfig;
use crate::sampler::Sampler;
use crate::tables::SkewedTables;
use sdbp_cache::policy::Access;
use sdbp_cache::{CacheConfig, MetaPlane};
use sdbp_predictors::DeadBlockPredictor;
use sdbp_trace::{BlockAddr, Pc};
use std::borrow::Cow;

/// The sampling dead block predictor. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct SamplingPredictor {
    tables: SkewedTables,
    sampler: Option<Sampler>,
    /// PC-only mode: per-line last-touch partial PC (a zero-set plane when
    /// the sampler carries the training state instead).
    last_pc: MetaPlane<u16>,
    pc_bits: u32,
}

impl SamplingPredictor {
    /// Builds the predictor for an LLC of geometry `llc`.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid for this LLC (see
    /// [`SdbpConfig::validate`] and [`Sampler::new`]).
    pub fn new(config: SdbpConfig, llc: CacheConfig) -> Self {
        config.validate();
        // Clamp the sampler to the LLC: tiny (test-sized) caches cannot be
        // shadowed by more sampler sets than they have sets.
        let sampler = config.sampler.map(|s| {
            let sets = s.sets.min(llc.sets);
            Sampler::new(crate::config::SamplerConfig { sets, ..s }, llc.sets)
        });
        let last_pc = MetaPlane::new(if sampler.is_none() { llc.sets } else { 0 }, llc.ways, 0);
        SamplingPredictor {
            tables: SkewedTables::new(config.tables),
            sampler,
            last_pc,
            pc_bits: config.sampler.map_or(15, |s| s.pc_bits),
        }
    }

    /// The paper's configuration for this LLC.
    pub fn paper(llc: CacheConfig) -> Self {
        Self::new(SdbpConfig::paper(), llc)
    }

    /// The sampler, when configured.
    pub fn sampler(&self) -> Option<&Sampler> {
        self.sampler.as_ref()
    }

    /// The prediction tables (diagnostics).
    pub fn tables(&self) -> &SkewedTables {
        &self.tables
    }

    fn signature(&self, pc: Pc) -> u64 {
        (pc.raw() >> 2) & ((1 << self.pc_bits) - 1)
    }

    /// Feeds the sampler if this LLC set is sampled.
    fn maybe_sample(&mut self, llc_set: usize, access: &Access) {
        if let Some(sampler) = &mut self.sampler {
            if let Some(ss) = sampler.sampler_set(llc_set) {
                sampler.access(ss, access.block, access.pc, &mut self.tables);
            }
        }
    }
}

impl DeadBlockPredictor for SamplingPredictor {
    fn name(&self) -> Cow<'static, str> {
        match (&self.sampler, self.tables.is_skewed()) {
            (Some(_), _) => Cow::Borrowed("sampler"),
            (None, true) => Cow::Borrowed("pc-skewed"),
            (None, false) => Cow::Borrowed("pc-only"),
        }
    }

    fn on_hit(&mut self, set: usize, line: usize, access: &Access) -> bool {
        self.maybe_sample(set, access);
        if self.sampler.is_none() {
            // PC-only mode: train live with the previous last-toucher.
            let prev = u64::from(self.last_pc[line]);
            self.tables.train_live(prev);
            self.last_pc[line] = self.signature(access.pc) as u16;
        }
        self.tables.predict(self.signature(access.pc))
    }

    fn on_miss(&mut self, set: usize, access: &Access) -> bool {
        self.maybe_sample(set, access);
        self.tables.predict(self.signature(access.pc))
    }

    fn on_fill(&mut self, _set: usize, line: usize, access: &Access) {
        if self.sampler.is_none() {
            self.last_pc[line] = self.signature(access.pc) as u16;
        }
    }

    fn on_evict(&mut self, _set: usize, line: usize, _victim: BlockAddr, _access: &Access) {
        if self.sampler.is_none() {
            let prev = u64::from(self.last_pc[line]);
            self.tables.train_dead(prev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SamplerConfig, TableConfig};
    use sdbp_trace::AccessKind;

    fn llc() -> CacheConfig {
        CacheConfig::new(128, 4)
    }

    fn acc(pc: u64, block: u64) -> Access {
        Access::demand(Pc::new(pc), BlockAddr::new(block), AccessKind::Read, 0)
    }

    #[test]
    fn names_reflect_configuration() {
        assert_eq!(SamplingPredictor::paper(llc()).name(), "sampler");
        assert_eq!(
            SamplingPredictor::new(SdbpConfig::dbrb_alone(), llc()).name(),
            "pc-only"
        );
        assert_eq!(
            SamplingPredictor::new(SdbpConfig::dbrb_skewed(), llc()).name(),
            "pc-skewed"
        );
    }

    #[test]
    fn sampled_set_training_generalizes_to_unsampled_sets() {
        // LLC 128 sets, sampler 2 sets (stride 64): set 0 is sampled,
        // set 5 is not. Deaths observed in set 0 must predict in set 5.
        let cfg = SdbpConfig {
            sampler: Some(SamplerConfig {
                sets: 2,
                assoc: 2,
                ..SamplerConfig::default()
            }),
            tables: TableConfig::skewed(),
        };
        let mut p = SamplingPredictor::new(cfg, llc());
        let kill = 0x500u64;
        // Blocks in sampled set 0 touched once by `kill` then evicted from
        // the 2-way sampler by fresh tags.
        for i in 0..20u64 {
            let b = |j: u64| (i * 97 + j) << 11; // set 0, distinct partial tags
            p.on_miss(0, &acc(kill, b(0)));
            p.on_miss(0, &acc(0x900, b(1)));
            p.on_miss(0, &acc(0x904, b(2)));
        }
        // A miss in unsampled set 5 by the kill PC: predicted dead on
        // arrival — without set 5 ever training anything.
        assert!(
            p.on_miss(5, &acc(kill, 5)),
            "learning must generalize across sets"
        );
    }

    #[test]
    fn unsampled_sets_never_train() {
        let mut p = SamplingPredictor::paper(CacheConfig::llc_2mb());
        // Hammer an unsampled set (set 1).
        for i in 0..1000u64 {
            p.on_miss(1, &acc(0x500, (i << 11) | 1));
        }
        let sampler = p.sampler().unwrap();
        assert_eq!(sampler.hits() + sampler.misses(), 0);
        assert!(
            !p.on_miss(1, &acc(0x500, 1)),
            "no training can have happened"
        );
    }

    #[test]
    fn pc_only_mode_learns_without_sampler() {
        let mut p = SamplingPredictor::new(SdbpConfig::dbrb_alone(), llc());
        // Line 0: filled by kill PC, evicted untouched, repeatedly.
        for i in 0..4u64 {
            p.on_fill(3, 0, &acc(0x800, i));
            p.on_evict(3, 0, BlockAddr::new(i), &acc(0x900, 50 + i));
        }
        assert!(
            p.on_miss(3, &acc(0x800, 99)),
            "PC-only mode should learn dead-on-arrival"
        );
    }

    #[test]
    fn pc_only_hits_train_live() {
        let mut p = SamplingPredictor::new(SdbpConfig::dbrb_alone(), llc());
        // Train dead...
        for i in 0..4u64 {
            p.on_fill(3, 0, &acc(0x800, i));
            p.on_evict(3, 0, BlockAddr::new(i), &acc(0x900, 50 + i));
        }
        // ...then repeatedly observe reuse after that PC: hits train live.
        for i in 0..8u64 {
            p.on_fill(3, 0, &acc(0x800, 200 + i));
            p.on_hit(3, 0, &acc(0x804, 200 + i));
            p.on_evict(3, 0, BlockAddr::new(200 + i), &acc(0x900, 300 + i));
        }
        assert!(
            !p.on_miss(3, &acc(0x800, 999)),
            "live training must unlearn"
        );
    }

    #[test]
    fn paper_config_on_2mb_llc_has_1_in_64_sampling() {
        let p = SamplingPredictor::paper(CacheConfig::llc_2mb());
        let s = p.sampler().unwrap();
        let sampled = (0..2048)
            .filter(|&set| s.sampler_set(set).is_some())
            .count();
        assert_eq!(sampled, 32); // 1.56% of sets, the paper's "1.6%"
    }
}
