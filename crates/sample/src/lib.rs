//! The sampling plane of the SDBP reproduction: representative-interval
//! sampling for LLC replay, after "Improving the Representativeness of
//! Simulation Intervals for the Cache Memory System" (SimPoint applied to
//! cache studies).
//!
//! Replaying a long `.sdbt` trace exactly costs time linear in its
//! length, but most of that length is redundant: per-window cache
//! behaviour collapses into a few recurring phases. This crate exploits
//! that in four deterministic steps:
//!
//! 1. **Fingerprint** ([`builder`]): one replay pass with the
//!    [`WindowFingerprint`](sdbp_cache::WindowFingerprint) probe turns
//!    each fixed-size access window into a 10-feature behavioural vector
//!    (miss rate, set footprint, PC diversity, write mix, reuse-distance
//!    histogram). File traces reach this pass through `sdbp-traceio`'s
//!    columnar v2 batch decoder, so fingerprinting a long trace is
//!    replay-bound, not decode-bound — and the resulting plan is
//!    container-independent: the same stream encoded as v1 or v2
//!    produces a bit-identical `.sdbs` plan (`tests/plan_v2.rs`).
//! 2. **Cluster** ([`kmeans`]): a fixed-seed, bit-stable k-means groups
//!    the windows into phases — identical output across runs, input
//!    permutations, and worker counts.
//! 3. **Plan** ([`plan`]): the clustering, one representative window per
//!    phase, and a stated relative-error bound persist as a versioned,
//!    checksummed `.sdbs` file; corruption surfaces as a typed
//!    [`PlanError`], never a panic.
//! 4. **Sampled replay** ([`sampled`]): only the representatives run
//!    (each warmed on a fresh cache), their hit patterns tile the full
//!    stream, and the extrapolated
//!    [`SampledReplayResult`](sdbp_cache::SampledReplayResult) plugs into
//!    everything an exact replay feeds — at 10–100× less replay work.
//!
//! Everything here is `std`-only and a pure function of its inputs: the
//! same trace, seed, and config reproduce the same plan and the same
//! estimate bit for bit.

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::cast_possible_truncation,
)]
#![warn(missing_debug_implementations)]

pub mod builder;
pub mod kmeans;
pub mod plan;
pub mod sampled;

pub use builder::{build_plan, PlanConfig, DEFAULT_PLAN_SEED};
pub use kmeans::{cluster, Clustering, KmeansConfig};
pub use plan::{PlanError, SamplingPlan, MAX_SOURCE_LEN, PLAN_MAGIC, PLAN_VERSION};
pub use sampled::{calibrate_bound, replay_sampled, replay_sampled_sharded, SampleError};
