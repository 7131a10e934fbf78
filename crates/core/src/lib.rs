//! The sampling dead block predictor (SDBP) of Khan, Tian & Jiménez,
//! MICRO-43 2010 — the paper's contribution.
//!
//! SDBP decouples dead block prediction from the cache:
//!
//! * A small **sampler** ([`sampler::Sampler`]) — a 32-set, 12-way partial
//!   tag array covering one in every 64 LLC sets, always managed by LRU —
//!   observes a ~1.6% sample of LLC traffic and is the *only* place
//!   training happens.
//! * A **skewed predictor** ([`tables::SkewedTables`]) — three 4096-entry
//!   tables of 2-bit counters indexed by different hashes of the 15-bit PC
//!   of the last instruction to touch a block — supplies predictions for
//!   *every* LLC access; a block is dead when the counter sum reaches 8.
//! * The prediction drives the dead-block replacement and bypass policy
//!   ([`sdbp_predictors::dbrb::DeadBlockReplacement`]) over a default LRU
//!   *or random* cache; only one dead bit per cache block remains in the
//!   LLC.
//!
//! Every design knob of the paper's §VII-A4 ablation (sampler on/off,
//! associativity, skew, set count, threshold, tag width, learning from own
//! evictions) is exposed through [`config::SdbpConfig`].
//!
//! # Example
//!
//! ```
//! use sdbp::policies;
//! use sdbp_cache::{Cache, CacheConfig};
//!
//! // The paper's configuration: sampler-driven DBRB over default LRU.
//! let cfg = CacheConfig::llc_2mb();
//! let cache = Cache::with_policy(cfg, policies::sampler_lru(cfg));
//! assert_eq!(cache.policy().name(), "LRU+sampler-dbrb");
//! ```

#![warn(missing_debug_implementations)]

pub mod config;
pub mod policies;
pub mod predictor;
pub mod prefetch;
pub mod registry;
pub mod replay;
pub mod sampler;
pub mod tables;
pub mod vvc;

pub use config::{SamplerConfig, SdbpConfig, TableConfig};
pub use predictor::SamplingPredictor;
pub use prefetch::PrefetchSim;
pub use registry::{standard, PolicySpec, Registry, SpecError};
pub use sampler::Sampler;
pub use tables::SkewedTables;
pub use vvc::VirtualVictimCache;
