//! The replay front door: one [`ReplayRequest`] in, one
//! [`ReplayOutcome`] out, for every way the workspace replays a recorded
//! LLC stream under a registry policy.
//!
//! The paper evaluates every policy the same way — one recorded stream,
//! replayed under each policy on the same LLC — and sampled replay is
//! only a cheaper way to run that evaluation. This module is the single
//! place that turns a policy spec into a replay:
//!
//! * it looks the spec up in [`standard()`] and builds the policy once —
//!   an unknown or malformed spec is a typed [`ReplayError`], and a
//!   one-shard replay runs on that very build (a sharded one builds one
//!   more per shard);
//! * it applies the shard fallback rule once: a replay shards only when
//!   more than one shard is requested **and** the registry entry is
//!   set-local (`shardable`, DESIGN.md §13); everything else runs the
//!   serial kernel, and [`ReplayOutcome::shards`] reports the count that
//!   actually ran;
//! * it turns the mode into a [`Span`] list — the whole stream for an
//!   exact replay, the plan's [`segment_schedule`] for a sampled one —
//!   and runs that list through the one replay kernel: serially with
//!   [`replay_spans`], or sharded by set with [`replay_sharded`];
//! * a sampled replay's measured outcomes then extrapolate to the whole
//!   stream through [`assemble`].
//!
//! One-shard requests never enter the sharded loop: it copies the
//! stream into per-shard queues and measured 1.1–1.24× slower than the
//! serial loop at one shard.
//!
//! ```
//! use sdbp::replay::{ReplayMode, ReplayRequest};
//! use sdbp::registry::PolicySpec;
//! use sdbp_cache::recorder::record;
//! use sdbp_cache::CacheConfig;
//! use sdbp_trace::{kernel::KernelSpec, TraceBuilder};
//!
//! let t = TraceBuilder::new(3).kernel(KernelSpec::hot_set(1 << 14)).build();
//! let w = record("demo", t, 20_000);
//! let policy: PolicySpec = "sampler".parse().unwrap();
//! let outcome = ReplayRequest {
//!     stream: &w.llc,
//!     llc: CacheConfig::new(64, 8),
//!     policy: &policy,
//!     mode: ReplayMode::Exact { probe: None },
//!     shards: 4,
//!     cores: 1,
//! }
//! .run()
//! .unwrap();
//! assert_eq!(outcome.hits.len(), w.llc.len());
//! assert_eq!(outcome.shards, 1, "the sampler's predictor tables are global: serial fallback");
//! ```

use crate::registry::{standard, PolicySpec, SpecError};
use sdbp_cache::kernel::{replay_sharded, ShardError, ShardPlan};
use sdbp_cache::meta::HitMap;
use sdbp_cache::recorder::LlcAccess;
use sdbp_cache::replay::{replay_spans, ReplayProbe, Span, SpanError};
use sdbp_cache::{Cache, CacheConfig, CacheStats};
use sdbp_sample::{assemble, segment_schedule, SampleError, SamplingPlan, Schedule};
use std::fmt;

/// How a [`ReplayRequest`] replays its stream.
pub enum ReplayMode<'a> {
    /// Replay every access; `probe`, when given, observes each outcome in
    /// stream order (also when the replay shards).
    Exact {
        /// Per-access observer, e.g. a window-miss stream.
        probe: Option<&'a mut dyn ReplayProbe>,
    },
    /// Replay only the plan's representative windows and extrapolate.
    /// Probes are not offered: most accesses are never replayed.
    Sampled(&'a SamplingPlan),
}

impl fmt::Debug for ReplayMode<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayMode::Exact { probe } => f
                .debug_struct("Exact")
                .field("probe", &probe.is_some())
                .finish(),
            ReplayMode::Sampled(plan) => f.debug_tuple("Sampled").field(&plan.source).finish(),
        }
    }
}

/// One replay of one recorded LLC stream under one registry policy.
#[derive(Debug)]
pub struct ReplayRequest<'a> {
    /// The recorded LLC demand stream.
    pub stream: &'a [LlcAccess],
    /// LLC geometry the policy is built for.
    pub llc: CacheConfig,
    /// The registry spec of the policy under study.
    pub policy: &'a PolicySpec,
    /// Exact or sampled.
    pub mode: ReplayMode<'a>,
    /// Requested set shards; honoured only for set-local policies.
    pub shards: usize,
    /// Cores that share the LLC (1 for a single-core recording): TADIP
    /// and TA-DRRIP keep state per core.
    pub cores: usize,
}

/// What a sampled replay adds to its outcome.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SampledExtras {
    /// The plan's stated relative error bound.
    pub bound: f64,
    /// Accesses actually replayed (warmup + measured).
    pub replayed: u64,
    /// Accesses of the full stream.
    pub total: u64,
}

impl SampledExtras {
    /// How many times less replay work the sampled run did
    /// (`total / replayed`).
    pub fn work_reduction(&self) -> f64 {
        self.total as f64 / self.replayed.max(1) as f64
    }
}

/// The result of a [`ReplayRequest`].
#[derive(Clone, PartialEq, Debug)]
pub struct ReplayOutcome {
    /// Counters of the run. A sampled run fills only `accesses`, `hits`
    /// and `misses`, from the extrapolated estimate.
    pub stats: CacheStats,
    /// Hit/miss of every access in stream order (tiled from the
    /// representatives for a sampled run), ready for the timing model.
    pub hits: HitMap,
    /// Bound and work figures, present exactly when the replay was
    /// sampled.
    pub sampled: Option<SampledExtras>,
    /// The shard count that actually ran: 1 whenever the policy is not
    /// set-local, otherwise the request's count clamped to `1..=sets`.
    pub shards: usize,
}

/// Why a [`ReplayRequest`] failed.
#[derive(Debug)]
pub enum ReplayError {
    /// The spec names no registry policy or its parameters are invalid.
    Spec(SpecError),
    /// A span of the serial replay does not fit the stream (a schedule
    /// bug).
    Span(SpanError),
    /// The sharded kernel could not assemble its result.
    Shard(ShardError),
    /// The sampling plan does not fit the stream.
    Sample(SampleError),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Spec(e) => e.fmt(f),
            ReplayError::Span(e) => e.fmt(f),
            ReplayError::Shard(e) => write!(f, "shard merge: {e}"),
            ReplayError::Sample(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ReplayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplayError::Spec(e) => Some(e),
            ReplayError::Span(e) => Some(e),
            ReplayError::Shard(e) => Some(e),
            ReplayError::Sample(e) => Some(e),
        }
    }
}

impl From<SpecError> for ReplayError {
    fn from(e: SpecError) -> Self {
        ReplayError::Spec(e)
    }
}

impl ReplayRequest<'_> {
    /// Runs the replay.
    ///
    /// # Errors
    ///
    /// [`ReplayError::Spec`] for an unknown or invalid policy spec,
    /// [`ReplayError::Sample`] for a plan built for another stream, and
    /// [`ReplayError::Span`] or [`ReplayError::Shard`] if the kernel
    /// cannot fit a span or merge its shards (a kernel bug).
    pub fn run(self) -> Result<ReplayOutcome, ReplayError> {
        let ReplayRequest {
            stream,
            llc,
            policy: spec,
            mode,
            shards,
            cores,
        } = self;
        let registry = standard();
        let entry = registry
            .find(&spec.name)
            .ok_or_else(|| SpecError::UnknownPolicy(spec.name.clone()))?;
        let built = (entry.build)(spec, llc, cores)?;
        let shards = if entry.shardable {
            shards.clamp(1, llc.sets.max(1))
        } else {
            1
        };
        let (probe, plan) = match mode {
            ReplayMode::Exact { probe } => (probe, None),
            ReplayMode::Sampled(plan) => (None, Some(plan)),
        };
        let schedule = plan
            .map(|plan| segment_schedule(stream.len(), plan))
            .transpose()
            .map_err(ReplayError::Sample)?;
        let whole = [Span::whole(stream.len())];
        let spans = schedule.as_ref().map_or(&whole[..], Schedule::spans);
        let result = if shards == 1 {
            let mut cache = Cache::with_policy(llc, built);
            replay_spans(stream, spans, &mut cache, probe).map_err(ReplayError::Span)?
        } else {
            let fresh = move || {
                let policy = (entry.build)(spec, llc, cores).expect("spec validated above");
                Cache::with_policy(llc, policy)
            };
            let plan = ShardPlan::new(llc.sets, shards);
            replay_sharded(stream, spans, &plan, &fresh, probe).map_err(ReplayError::Shard)?
        };
        Ok(match plan.zip(schedule) {
            None => ReplayOutcome {
                stats: result.stats,
                hits: result.hits,
                sampled: None,
                shards,
            },
            Some((plan, schedule)) => sampled(
                assemble(stream.len(), plan, &schedule, &result.hits),
                shards,
            ),
        })
    }
}

fn sampled(result: sdbp_cache::SampledReplayResult, shards: usize) -> ReplayOutcome {
    let stats = CacheStats {
        accesses: result.total,
        hits: result.total - result.estimated,
        misses: result.estimated,
        ..CacheStats::default()
    };
    let extras = SampledExtras {
        bound: result.bound,
        replayed: result.replayed,
        total: result.total,
    };
    ReplayOutcome {
        stats,
        hits: result.hits,
        sampled: Some(extras),
        shards,
    }
}
