//! Multi-level cache hierarchy simulator for the SDBP reproduction.
//!
//! The crate is organised around the methodology of trace-driven LLC
//! replacement studies (CMP$im and the JILP Cache Replacement Championship,
//! which the paper uses):
//!
//! 1. [`hierarchy`] simulates the fixed L1/L2 levels over a raw instruction
//!    stream. Because the hierarchy is non-inclusive and never back-
//!    invalidates, the stream of accesses reaching the LLC is **independent
//!    of the LLC replacement policy**.
//! 2. [`recorder`] captures that LLC stream (plus a compact per-instruction
//!    timing record) exactly once per workload.
//! 3. [`replay()`](crate::replay::replay) then replays the recorded stream against an LLC
//!    ([`Cache`]) configured with any [`policy::ReplacementPolicy`] — LRU,
//!    random, DIP, RRIP, or a dead-block replacement-and-bypass policy —
//!    producing miss counts and a per-access hit bitmap that the timing
//!    model (`sdbp-cpu`) converts into IPC.
//!
//! [`efficiency`] adds the live/dead-time accounting behind the paper's
//! Figure 1 and its "blocks are dead 86% of the time" observation, and
//! [`full`] provides the jointly simulated hierarchy that
//! cross-validates the record/replay decomposition.
//!
//! # Example
//!
//! ```
//! use sdbp_cache::{Cache, CacheConfig};
//! use sdbp_cache::policy::Access;
//! use sdbp_trace::{AccessKind, BlockAddr, Pc};
//!
//! // A 2 MB, 16-way LLC with the built-in true-LRU policy.
//! let mut llc = Cache::new(CacheConfig::llc_2mb());
//! let a = Access::demand(Pc::new(0x400), BlockAddr::new(42), AccessKind::Read, 0);
//! assert!(!llc.access(&a).is_hit()); // cold miss
//! assert!(llc.access(&a).is_hit()); // now resident
//! ```

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::cast_possible_truncation
)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod config;
pub mod efficiency;
pub mod full;
pub mod hierarchy;
pub mod kernel;
pub mod lru;
pub mod meta;
pub mod policy;
pub mod recorder;
pub mod replay;
pub mod reuse;
pub mod stats;

pub use cache::{AccessOutcome, Cache, CacheCore};
pub use config::CacheConfig;
pub use kernel::{replay_sharded, ShardError, ShardPlan};
pub use meta::{HitMap, MetaPlane};
pub use policy::{Access, ReplacementPolicy, Victim};
pub use recorder::{record, InstrKind, InstrRecord, LlcAccess, RecordedWorkload};
pub use replay::{
    replay, replay_spans, replay_with_probe, Fingerprint, Outcomes, ReplayProbe, ReplayResult,
    SampledReplayResult, Span, SpanError, SplitHitsError, WindowFingerprint, FINGERPRINT_FEATURES,
};
pub use stats::CacheStats;
