//! Sampled replay: run only a plan's representative segments, then tile
//! their measured hit patterns across the whole stream to extrapolate
//! full-trace behaviour.
//!
//! The representatives are replayed **in stream order on one persistent
//! cache** (supplied cold by the caller's factory, so any policy works),
//! each with its warmup windows driven unmeasured first. The warmup
//! re-warms the tag array after every skip, while policy-internal
//! learning state — dead block predictors, set-dueling counters, RRIP
//! adaptation — accumulates across segments exactly as it would over the
//! full stream. Replaying each segment on an independent cold cache
//! instead (the plain SimPoint discipline) systematically overestimates
//! misses for learning policies, whose predictors never get past their
//! training phase inside a single segment. The synthesized full-length
//! [`HitMap`] means everything downstream of an exact replay (miss
//! counts, MPKI, per-core splits, the timing model) consumes a sampled
//! result unchanged.

use crate::plan::{PlanError, SamplingPlan};
use sdbp_cache::kernel::{ShardError, ShardPlan, ShardRunner};
use sdbp_cache::meta::HitMap;
use sdbp_cache::policy::Access;
use sdbp_cache::recorder::LlcAccess;
use sdbp_cache::replay::{replay, replay_segment, SegmentError};
use sdbp_cache::{Cache, SampledReplayResult};
use std::fmt;

/// Why a sampled replay could not run.
#[derive(Debug)]
pub enum SampleError {
    /// The plan was built for a stream of a different length.
    StreamMismatch {
        /// Accesses the plan was built for.
        plan_len: u64,
        /// Accesses in the stream actually supplied.
        stream_len: u64,
    },
    /// The plan itself is structurally invalid.
    Plan(PlanError),
    /// A representative's segment did not fit the stream (implies a plan
    /// geometry bug; [`SamplingPlan::validate`] should have caught it).
    Segment(SegmentError),
    /// The sharded variant's set partition did not fit the cache
    /// geometry or its shard results did not tile the stream.
    Shard(ShardError),
}

impl fmt::Display for SampleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SampleError::StreamMismatch { plan_len, stream_len } => write!(
                f,
                "plan was built for a {plan_len}-access stream, got {stream_len} accesses"
            ),
            SampleError::Plan(e) => write!(f, "sampled replay rejected plan: {e}"),
            SampleError::Segment(e) => write!(f, "sampled replay segment misfit: {e}"),
            SampleError::Shard(e) => write!(f, "sharded sampled replay: {e}"),
        }
    }
}

impl std::error::Error for SampleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SampleError::Plan(e) => Some(e),
            SampleError::Segment(e) => Some(e),
            SampleError::Shard(e) => Some(e),
            SampleError::StreamMismatch { .. } => None,
        }
    }
}

impl From<ShardError> for SampleError {
    fn from(e: ShardError) -> Self {
        SampleError::Shard(e)
    }
}

impl From<PlanError> for SampleError {
    fn from(e: PlanError) -> Self {
        SampleError::Plan(e)
    }
}

impl From<SegmentError> for SampleError {
    fn from(e: SegmentError) -> Self {
        SampleError::Segment(e)
    }
}

/// Replays only `plan`'s representative segments of `stream`,
/// extrapolating a full-stream [`SampledReplayResult`]. `fresh` must
/// yield a cold cache configured with the policy under study; it is
/// called once, and the cache then persists across all representative
/// segments (visited in stream order) so learning policies keep their
/// accumulated predictor state between skips.
///
/// # Errors
///
/// Returns [`SampleError`] when the plan is invalid, was built for a
/// different stream length, or (unreachably for validated plans)
/// describes a segment outside the stream.
pub fn replay_sampled<F: FnMut() -> Cache>(
    stream: &[LlcAccess],
    plan: &SamplingPlan,
    mut fresh: F,
) -> Result<SampledReplayResult, SampleError> {
    let (segments, replayed) = segment_schedule(stream.len(), plan)?;

    let mut patterns: Vec<Vec<bool>> = vec![Vec::new(); plan.representatives.len()];
    let mut cache = fresh();
    for seg in &segments {
        let pattern = replay_segment(
            stream,
            seg.warmup_start,
            seg.measure_start,
            seg.measure_end,
            &mut cache,
        )?;
        if let Some(slot) = patterns.get_mut(seg.cluster) {
            *slot = pattern.iter().collect();
        }
    }
    Ok(assemble(stream.len(), plan, &patterns, replayed))
}

/// One representative segment's replay ranges, in stream order: warmup
/// (unmeasured) first, then the measured window.
struct Segment {
    /// Index into `plan.representatives` (the cluster this window's
    /// pattern will tile).
    cluster: usize,
    /// First warmup access.
    warmup_start: usize,
    /// First measured access.
    measure_start: usize,
    /// One past the last measured access.
    measure_end: usize,
}

/// Validates `plan` against a stream of `stream_len` accesses and lays
/// out the representative segments **in stream order**, chained so no
/// access is ever replayed twice (a later segment's warmup starts at or
/// after the previous segment's end). Returns the segments plus the
/// total replayed-access count — the serial work-accounting formula,
/// shared verbatim with [`replay_sampled_sharded`] so both paths report
/// identical `replayed` numbers.
fn segment_schedule(
    stream_len: usize,
    plan: &SamplingPlan,
) -> Result<(Vec<Segment>, u64), SampleError> {
    plan.validate()?;
    if stream_len as u64 != plan.source_len {
        return Err(SampleError::StreamMismatch {
            plan_len: plan.source_len,
            stream_len: stream_len as u64,
        });
    }
    let window = plan.window as usize;
    let warmup = plan.warmup_windows as usize;

    // Visit the representatives in stream order so one persistent cache
    // sees a monotone (if gappy) slice of the trace.
    let mut order: Vec<(u64, usize)> = plan
        .representatives
        .iter()
        .enumerate()
        .map(|(c, &rep)| (rep, c))
        .collect();
    order.sort_unstable();

    let mut segments = Vec::with_capacity(order.len());
    let mut replayed = 0u64;
    let mut prev_end = 0usize;
    for (rep, cluster) in order {
        let rep = usize::try_from(rep).map_err(|_| PlanError::Malformed {
            detail: format!("representative window {rep} exceeds the address space"),
        })?;
        let geometry_lie = || PlanError::Malformed {
            detail: format!("representative window {rep} overflows the stream geometry"),
        };
        let measure_start = rep.checked_mul(window).ok_or_else(geometry_lie)?;
        let measure_end = measure_start
            .checked_add(window)
            .ok_or_else(geometry_lie)?
            .min(stream_len);
        // Warm up from at most `warmup` windows back, but never re-replay
        // accesses an earlier segment already drove through this cache.
        let warmup_start = measure_start
            .saturating_sub(warmup.saturating_mul(window))
            .max(prev_end);
        replayed += (measure_end - warmup_start) as u64;
        prev_end = measure_end;
        segments.push(Segment { cluster, warmup_start, measure_start, measure_end });
    }
    Ok((segments, replayed))
}

/// Tiles each window with its cluster representative's measured pattern
/// and wraps the result — the shared back half of both replay variants.
/// The tail window may be shorter than its representative (truncate) or —
/// when the tail itself represents a singleton cluster — longer than
/// it (cycle).
fn assemble(
    stream_len: usize,
    plan: &SamplingPlan,
    patterns: &[Vec<bool>],
    replayed: u64,
) -> SampledReplayResult {
    let window = plan.window as usize;
    let mut hits = HitMap::with_capacity(stream_len);
    for (w, &c) in plan.assignment.iter().enumerate() {
        let start = w.saturating_mul(window).min(stream_len);
        let len = window.min(stream_len - start);
        let pattern = patterns.get(c as usize);
        for i in 0..len {
            let bit = pattern
                .filter(|p| !p.is_empty())
                .and_then(|p| p.get(i % p.len()).copied())
                .unwrap_or(false);
            hits.push(bit);
        }
    }
    let estimated = hits.len() as u64 - hits.count_ones();
    SampledReplayResult {
        estimated,
        exact: None,
        rel_error: None,
        bound: plan.bound,
        hits,
        replayed,
        total: stream_len as u64,
    }
}

/// The sharded variant of [`replay_sampled`]: each shard keeps its own
/// **persistent** cache and replays every representative segment in
/// stream order, filtered to the shard's set range — predictor and
/// replacement state still carries across skips in stream order, per
/// shard. Each segment's measured bits are then re-interleaved by
/// cursor-walking the original stream (the same merge discipline as
/// [`replay_sharded`](sdbp_cache::kernel::replay_sharded) — shard
/// results are consumed by shard *index*, never by completion order), and the
/// extrapolation tiles exactly as the serial path does, reporting the
/// serial `replayed` work count.
///
/// **Exactness requires a set-local policy** (the registry's
/// `shardable` flag): with per-set state, an access's outcome depends
/// only on earlier same-set accesses, all of which its shard replays in
/// order, so the result is bit-identical to [`replay_sampled`] at every
/// shard count. The replay front door (`sdbp::replay`) falls back to
/// the serial path for policies with global state (RNG, set dueling,
/// shared predictor tables).
///
/// # Errors
///
/// The same [`SampleError`]s as [`replay_sampled`], plus
/// [`SampleError::Shard`] when the shard plan's set count disagrees
/// with the factory's cache geometry.
pub fn replay_sampled_sharded<R: ShardRunner>(
    stream: &[LlcAccess],
    plan: &SamplingPlan,
    shard_plan: &ShardPlan,
    fresh: &(dyn Fn() -> Cache + Sync),
    runner: &R,
) -> Result<SampledReplayResult, SampleError> {
    let (segments, replayed) = segment_schedule(stream.len(), plan)?;
    let sets = fresh().config().sets;
    if sets != shard_plan.sets() {
        return Err(SampleError::Shard(ShardError::Geometry {
            plan_sets: shard_plan.sets(),
            cache_sets: sets,
        }));
    }
    // Validate every segment range once, up front, so the per-shard
    // loops can slice with silent-skip fallbacks that never trigger.
    for seg in &segments {
        if seg.warmup_start > seg.measure_start
            || seg.measure_start > seg.measure_end
            || stream.get(seg.warmup_start..seg.measure_end).is_none()
        {
            return Err(SampleError::Segment(SegmentError {
                warmup_start: seg.warmup_start,
                measure_start: seg.measure_start,
                measure_end: seg.measure_end,
                stream_len: stream.len(),
            }));
        }
    }

    // Fan out: shard `s` replays its subsequence of every segment on one
    // persistent cache, returning per-segment measured bits in shard-
    // local stream order.
    let segments = &segments;
    let tasks: Vec<Box<dyn FnOnce() -> Vec<Vec<bool>> + Send + '_>> = (0..shard_plan.shards())
        .map(|shard| {
            Box::new(move || {
                let mut cache = fresh();
                let mut measured: Vec<Vec<bool>> = Vec::with_capacity(segments.len());
                for seg in segments {
                    let mut bits = Vec::new();
                    let span =
                        stream.get(seg.warmup_start..seg.measure_end).unwrap_or_default();
                    for (offset, a) in span.iter().enumerate() {
                        if shard_plan.shard_of(a.block.set_index(sets)) != shard {
                            continue;
                        }
                        let access = Access::demand(a.pc, a.block, a.kind, a.core);
                        let hit = cache.access(&access).is_hit();
                        if seg.warmup_start + offset >= seg.measure_start {
                            bits.push(hit);
                        }
                    }
                    // Segment boundary: flush efficiency bookkeeping the
                    // same way `replay_segment` does on the serial path.
                    cache.finish();
                    measured.push(bits);
                }
                measured
            }) as Box<dyn FnOnce() -> Vec<Vec<bool>> + Send + '_>
        })
        .collect();
    let shard_bits = runner.run(tasks);

    // Merge each segment's measured window by cursor-walking the
    // original stream, consuming shard results strictly by shard index.
    let mut patterns: Vec<Vec<bool>> = vec![Vec::new(); plan.representatives.len()];
    for (seg_index, seg) in segments.iter().enumerate() {
        let mut cursors = vec![0usize; shard_bits.len()];
        let span = stream.get(seg.measure_start..seg.measure_end).unwrap_or_default();
        let mut pattern = Vec::with_capacity(span.len());
        for a in span {
            let shard = shard_plan.shard_of(a.block.set_index(sets));
            let bit = shard_bits
                .get(shard)
                .and_then(|segs| segs.get(seg_index))
                .zip(cursors.get_mut(shard))
                .and_then(|(bits, cursor)| {
                    let bit = bits.get(*cursor).copied();
                    *cursor += 1;
                    bit
                });
            let Some(bit) = bit else {
                return Err(SampleError::Shard(ShardError::HitsExhausted { shard }));
            };
            pattern.push(bit);
        }
        if let Some(slot) = patterns.get_mut(seg.cluster) {
            *slot = pattern;
        }
    }
    Ok(assemble(stream.len(), plan, &patterns, replayed))
}

/// Widens `plan`'s stated error bound to cover the sampled-vs-exact
/// error measured under caller-supplied *reference* policies.
///
/// The builder's own bound is calibrated against the baseline policy
/// only, which is blind to one real error source: policies with internal
/// learning state (dead block predictors, set-dueling counters) can make
/// statistically identical windows behave differently over time, and no
/// baseline-derived fingerprint can see that. Running one reference
/// learner through the full sampled-vs-exact comparison measures exactly
/// that transfer error; the bound becomes
/// `clamp(max(old, worst_reference_error * safety + floor), old, 1.0)` —
/// monotone (calibration never narrows a bound) and still honest about
/// residual uncertainty via `safety`/`floor`.
///
/// Each reference costs one exact replay of `stream` plus one sampled
/// replay — paid once at plan-build time, amortized over every policy
/// later evaluated against the plan.
///
/// Returns the worst reference relative error observed.
///
/// # Errors
///
/// Returns [`SampleError`] when the plan is invalid or does not match
/// `stream` (same failure modes as [`replay_sampled`]).
pub fn calibrate_bound(
    stream: &[LlcAccess],
    plan: &mut SamplingPlan,
    references: &mut [Box<dyn FnMut() -> Cache + '_>],
    safety: f64,
    floor: f64,
) -> Result<f64, SampleError> {
    let mut worst = 0.0f64;
    for fresh in references.iter_mut() {
        let sampled = replay_sampled(stream, plan, &mut **fresh)?;
        let exact = replay(stream, &mut fresh()).misses();
        let err = (sampled.estimated as f64 - exact as f64).abs() / (exact.max(1)) as f64;
        worst = worst.max(err);
    }
    let widened = (worst * safety + floor).clamp(floor, 1.0);
    plan.bound = plan.bound.max(widened);
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_plan, PlanConfig};
    use sdbp_cache::recorder::record;
    use sdbp_cache::replay::replay;
    use sdbp_cache::CacheConfig;
    use sdbp_trace::kernel::KernelSpec;
    use sdbp_trace::TraceBuilder;

    fn workload() -> sdbp_cache::RecordedWorkload {
        let t = TraceBuilder::new(33)
            .kernel(KernelSpec::streaming(1 << 22))
            .kernel(KernelSpec::hot_set(1 << 19))
            .build();
        record("sampled-test", t, 250_000)
    }

    #[test]
    fn sampled_estimate_tracks_exact_on_baseline() {
        let w = workload();
        let llc = CacheConfig::new(64, 8);
        let cfg = PlanConfig::default().with_window(1024).with_k(6);
        let plan = build_plan(&w, llc, &cfg);
        let sampled =
            replay_sampled(&w.llc, &plan, || Cache::new(llc)).expect("plan applies");
        let exact = replay(&w.llc, &mut Cache::new(llc));
        let checked = sampled.with_exact(exact.misses());
        assert_eq!(checked.hits.len(), w.llc.len());
        assert_eq!(checked.total, w.llc.len() as u64);
        assert!(checked.replayed < checked.total, "sampling must do less work");
        assert_eq!(
            checked.within_bound(),
            Some(true),
            "rel_error {:?} must be within bound {}",
            checked.rel_error,
            checked.bound
        );
    }

    #[test]
    fn sampled_replay_is_deterministic() {
        let w = workload();
        let llc = CacheConfig::new(64, 8);
        let plan = build_plan(&w, llc, &PlanConfig::default().with_window(1024).with_k(4));
        let a = replay_sampled(&w.llc, &plan, || Cache::new(llc)).expect("plan applies");
        let b = replay_sampled(&w.llc, &plan, || Cache::new(llc)).expect("plan applies");
        assert_eq!(a, b);
    }

    #[test]
    fn sharded_sampled_replay_is_bit_identical_to_serial() {
        use sdbp_cache::kernel::{SerialRunner, ThreadRunner};
        let w = workload();
        let llc = CacheConfig::new(64, 8);
        let plan = build_plan(&w, llc, &PlanConfig::default().with_window(1024).with_k(6));
        let serial =
            replay_sampled(&w.llc, &plan, || Cache::new(llc)).expect("plan applies");
        let fresh: &(dyn Fn() -> Cache + Sync) = &move || Cache::new(llc);
        for shards in [1usize, 3, 8] {
            let shard_plan = ShardPlan::new(llc.sets, shards);
            let a = replay_sampled_sharded(&w.llc, &plan, &shard_plan, fresh, &SerialRunner)
                .expect("plan applies");
            let b = replay_sampled_sharded(&w.llc, &plan, &shard_plan, fresh, &ThreadRunner)
                .expect("plan applies");
            assert_eq!(a, serial, "SerialRunner diverged at {shards} shards");
            assert_eq!(b, serial, "ThreadRunner diverged at {shards} shards");
        }
    }

    #[test]
    fn sharded_sampled_replay_rejects_geometry_mismatch() {
        let w = workload();
        let llc = CacheConfig::new(64, 8);
        let plan = build_plan(&w, llc, &PlanConfig::default().with_window(1024).with_k(4));
        let shard_plan = ShardPlan::new(32, 4); // wrong set count
        let fresh: &(dyn Fn() -> Cache + Sync) = &move || Cache::new(llc);
        let err = replay_sampled_sharded(
            &w.llc,
            &plan,
            &shard_plan,
            fresh,
            &sdbp_cache::kernel::SerialRunner,
        )
        .expect_err("geometry mismatch must be typed");
        assert!(matches!(err, SampleError::Shard(ShardError::Geometry { .. })));
    }

    #[test]
    fn rejects_wrong_stream_length() {
        let w = workload();
        let llc = CacheConfig::new(64, 8);
        let plan = build_plan(&w, llc, &PlanConfig::default().with_window(1024).with_k(4));
        let truncated = &w.llc[..w.llc.len() / 2];
        let err = replay_sampled(truncated, &plan, || Cache::new(llc))
            .expect_err("length mismatch must be typed");
        assert!(matches!(err, SampleError::StreamMismatch { .. }));
        assert!(err.to_string().contains("stream"));
    }

    #[test]
    fn calibration_only_ever_widens_the_bound() {
        let w = workload();
        let llc = CacheConfig::new(64, 8);
        let mut plan =
            build_plan(&w, llc, &PlanConfig::default().with_window(1024).with_k(6));
        let before = plan.bound;
        let mut refs: Vec<Box<dyn FnMut() -> Cache>> =
            vec![Box::new(move || Cache::new(llc)), Box::new(move || Cache::new(llc))];
        let worst = calibrate_bound(&w.llc, &mut plan, &mut refs, 2.0, 0.005)
            .expect("plan applies to its own workload");
        assert!(worst >= 0.0 && worst.is_finite());
        assert!(plan.bound >= before, "calibration must never narrow the bound");
        assert!(plan.bound <= 1.0);
        // The baseline reference repeats the builder's own self-validation,
        // so the measured error must sit within the already-stated bound.
        assert!(worst * 2.0 + 0.005 <= before + 1e-12, "worst={worst} before={before}");
    }

    #[test]
    fn calibration_rejects_mismatched_stream() {
        let w = workload();
        let llc = CacheConfig::new(64, 8);
        let mut plan =
            build_plan(&w, llc, &PlanConfig::default().with_window(1024).with_k(4));
        let mut refs: Vec<Box<dyn FnMut() -> Cache>> = vec![Box::new(move || Cache::new(llc))];
        let err = calibrate_bound(&w.llc[..10], &mut plan, &mut refs, 2.0, 0.005)
            .expect_err("length mismatch must be typed");
        assert!(matches!(err, SampleError::StreamMismatch { .. }));
    }

    #[test]
    fn rejects_invalid_plan() {
        let w = workload();
        let llc = CacheConfig::new(64, 8);
        let mut plan =
            build_plan(&w, llc, &PlanConfig::default().with_window(1024).with_k(4));
        plan.window = 0;
        let err = replay_sampled(&w.llc, &plan, || Cache::new(llc))
            .expect_err("invalid plan must be typed");
        assert!(matches!(err, SampleError::Plan(_)));
    }
}
