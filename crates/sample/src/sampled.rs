//! Sampled replay: run only a plan's representative segments, then tile
//! their measured hit patterns across the whole stream to extrapolate
//! full-trace behaviour.
//!
//! A sampled replay is a schedule plus an extrapolation around the one
//! replay kernel. [`segment_schedule`] lays the plan's representatives
//! out as a [`Span`] list in stream order, each span a few warm-up
//! windows followed by its measured window; the kernel replays that list
//! like any other ([`replay_spans`]); and
//! [`assemble`] tiles the measured bits over every window of the stream.
//!
//! The spans run **on one persistent cache** (supplied cold by the
//! caller's factory, so any policy works). The warm-up re-warms the tag
//! array after every skip, while policy-internal learning state — dead
//! block predictors, set-dueling counters, RRIP adaptation — accumulates
//! across segments exactly as it would over the full stream. Replaying
//! each segment on an independent cold cache instead (the plain SimPoint
//! discipline) systematically overestimates misses for learning
//! policies, whose predictors never get past their training phase inside
//! a single segment. The synthesized full-length [`HitMap`] means
//! everything downstream of an exact replay (miss counts, MPKI, per-core
//! splits, the timing model) consumes a sampled result unchanged.

use crate::plan::{PlanError, SamplingPlan};
use sdbp_cache::meta::HitMap;
use sdbp_cache::recorder::LlcAccess;
use sdbp_cache::replay::{replay_spans, Outcomes, Span, SpanError};
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
    /// A scheduled span did not fit the stream (implies a plan geometry
    /// bug; [`SamplingPlan::validate`] should have caught it).
    Span(SpanError),
}

impl fmt::Display for SampleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SampleError::StreamMismatch {
                plan_len,
                stream_len,
            } => write!(
                f,
                "plan was built for a {plan_len}-access stream, got {stream_len} accesses"
            ),
            SampleError::Plan(e) => write!(f, "sampled replay rejected plan: {e}"),
            SampleError::Span(e) => write!(f, "sampled replay span misfit: {e}"),
        }
    }
}

impl std::error::Error for SampleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SampleError::Plan(e) => Some(e),
            SampleError::Span(e) => Some(e),
            SampleError::StreamMismatch { .. } => None,
        }
    }
}

impl From<PlanError> for SampleError {
    fn from(e: PlanError) -> Self {
        SampleError::Plan(e)
    }
}

impl From<SpanError> for SampleError {
    fn from(e: SpanError) -> Self {
        SampleError::Span(e)
    }
}

/// Replays only `plan`'s representative segments of `stream`,
/// extrapolating a full-stream [`SampledReplayResult`]: the schedule,
/// the serial span loop on one cache from `fresh`, then [`assemble`].
/// `fresh` must yield a cold cache configured with the policy under
/// study; it is called once, and the cache persists across all
/// representative segments so learning policies keep their accumulated
/// predictor state between skips.
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
    let schedule = segment_schedule(stream.len(), plan)?;
    let measured = replay_spans(stream, schedule.spans(), &mut fresh(), None)?;
    Ok(assemble(stream.len(), plan, &schedule, &measured.hits))
}

/// A plan laid out over its stream: the spans a sampled replay runs, in
/// stream order, and the cluster whose windows each span's measured
/// window stands for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    spans: Vec<Span>,
    replayed: u64,
    /// The cluster of each span, index-aligned with `spans`.
    clusters: Vec<usize>,
}

impl Schedule {
    /// One span per representative, in stream order, chained so no
    /// access is replayed twice: a span's warm-up starts at or after the
    /// previous span's end.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Accesses the spans replay, warm-ups included: the work paid.
    pub const fn replayed(&self) -> u64 {
        self.replayed
    }
}

/// Validates `plan` against a stream of `stream_len` accesses and lays
/// out its representative segments as a [`Schedule`]: each measured
/// window preceded by up to `plan.warmup_windows` windows of warm-up,
/// clipped at the previous segment's end.
///
/// # Errors
///
/// [`SampleError`] when the plan is invalid or was built for a stream of
/// another length.
pub fn segment_schedule(stream_len: usize, plan: &SamplingPlan) -> Result<Schedule, SampleError> {
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

    let mut spans = Vec::with_capacity(order.len());
    let mut clusters = Vec::with_capacity(order.len());
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
        replayed += measure_end.saturating_sub(warmup_start) as u64;
        prev_end = measure_end;
        spans.push(Span {
            warmup_start,
            measure_start,
            measure_end,
        });
        clusters.push(cluster);
    }
    Ok(Schedule {
        spans,
        replayed,
        clusters,
    })
}

/// Extrapolates a sampled replay of a `stream_len`-access stream: tiles
/// each of `plan`'s windows with its cluster's measured pattern, cut from
/// `measured` — the concatenated measured outcomes of `schedule`'s spans,
/// as the replay kernel returns them. The tail window may be shorter than
/// its representative (truncate) or — when the tail itself represents a
/// singleton cluster — longer than it (cycle). A cluster with no measured
/// bits tiles as misses.
pub fn assemble(
    stream_len: usize,
    plan: &SamplingPlan,
    schedule: &Schedule,
    measured: &HitMap,
) -> SampledReplayResult {
    let mut patterns = vec![0..0; plan.representatives.len()];
    let mut offset = 0;
    for (span, &cluster) in schedule.spans.iter().zip(&schedule.clusters) {
        let len = span.measure_end.saturating_sub(span.measure_start);
        if let Some(pattern) = patterns.get_mut(cluster) {
            *pattern = offset..offset + len;
        }
        offset += len;
    }
    let window = plan.window as usize;
    let mut hits = HitMap::with_capacity(stream_len);
    for (w, &c) in plan.assignment.iter().enumerate() {
        let start = w.saturating_mul(window).min(stream_len);
        let mut len = window.min(stream_len - start);
        match patterns.get(c as usize).filter(|p| !p.is_empty()) {
            // Whole copies of the pattern, then a truncated one.
            Some(p) => {
                while len > 0 {
                    let take = len.min(p.len());
                    hits.extend_from_range(measured, p.start..p.start + take);
                    len -= take;
                }
            }
            None => hits.extend_from_range(&HitMap::new(), 0..len),
        }
    }
    let estimated = hits.len() as u64 - hits.count_ones();
    SampledReplayResult {
        estimated,
        exact: None,
        rel_error: None,
        bound: plan.bound,
        hits,
        replayed: schedule.replayed,
        total: stream_len as u64,
    }
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
        // Only the miss count is compared, so the exact reference keeps
        // no per-access outcomes.
        let mut exact = fresh();
        exact.run(stream, Outcomes::Discard);
        let exact = exact.stats().misses;
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
        let sampled = replay_sampled(&w.llc, &plan, || Cache::new(llc)).expect("plan applies");
        let exact = replay(&w.llc, &mut Cache::new(llc));
        let checked = sampled.with_exact(exact.misses());
        assert_eq!(checked.hits.len(), w.llc.len());
        assert_eq!(checked.total, w.llc.len() as u64);
        assert!(
            checked.replayed < checked.total,
            "sampling must do less work"
        );
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
    fn schedule_chains_spans_in_stream_order() {
        let w = workload();
        let llc = CacheConfig::new(64, 8);
        let plan = build_plan(&w, llc, &PlanConfig::default().with_window(1024).with_k(6));
        let schedule = segment_schedule(w.llc.len(), &plan).expect("plan fits its stream");
        assert_eq!(schedule.spans().len(), plan.representatives.len());
        let mut prev_end = 0;
        for span in schedule.spans() {
            assert!(
                prev_end <= span.warmup_start,
                "{span:?} re-replays accesses"
            );
            assert!(span.warmup_start <= span.measure_start);
            assert!(span.measure_start < span.measure_end);
            prev_end = span.measure_end;
        }
        let work: usize = schedule
            .spans()
            .iter()
            .map(|s| s.measure_end - s.warmup_start)
            .sum();
        assert_eq!(schedule.replayed(), work as u64);
        // The public pair around the serial span loop is replay_sampled.
        let measured = replay_spans(&w.llc, schedule.spans(), &mut Cache::new(llc), None)
            .expect("scheduled spans fit");
        let assembled = assemble(w.llc.len(), &plan, &schedule, &measured.hits);
        let sampled = replay_sampled(&w.llc, &plan, || Cache::new(llc)).expect("plan applies");
        assert_eq!(assembled, sampled);
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
        let mut plan = build_plan(&w, llc, &PlanConfig::default().with_window(1024).with_k(6));
        let before = plan.bound;
        let mut refs: Vec<Box<dyn FnMut() -> Cache>> = vec![
            Box::new(move || Cache::new(llc)),
            Box::new(move || Cache::new(llc)),
        ];
        let worst = calibrate_bound(&w.llc, &mut plan, &mut refs, 2.0, 0.005)
            .expect("plan applies to its own workload");
        assert!(worst >= 0.0 && worst.is_finite());
        assert!(
            plan.bound >= before,
            "calibration must never narrow the bound"
        );
        assert!(plan.bound <= 1.0);
        // The baseline reference repeats the builder's own self-validation,
        // so the measured error must sit within the already-stated bound.
        assert!(
            worst * 2.0 + 0.005 <= before + 1e-12,
            "worst={worst} before={before}"
        );
    }

    #[test]
    fn calibration_rejects_mismatched_stream() {
        let w = workload();
        let llc = CacheConfig::new(64, 8);
        let mut plan = build_plan(&w, llc, &PlanConfig::default().with_window(1024).with_k(4));
        let mut refs: Vec<Box<dyn FnMut() -> Cache>> = vec![Box::new(move || Cache::new(llc))];
        let err = calibrate_bound(&w.llc[..10], &mut plan, &mut refs, 2.0, 0.005)
            .expect_err("length mismatch must be typed");
        assert!(matches!(err, SampleError::StreamMismatch { .. }));
    }

    /// The per-bit tiling [`assemble`] replaced, kept as its model.
    fn assemble_bitwise(
        stream_len: usize,
        plan: &SamplingPlan,
        schedule: &Schedule,
        measured: &HitMap,
    ) -> HitMap {
        let mut patterns = vec![0..0; plan.representatives.len()];
        let mut offset = 0;
        for (span, &cluster) in schedule.spans.iter().zip(&schedule.clusters) {
            let len = span.measure_end.saturating_sub(span.measure_start);
            patterns[cluster] = offset..offset + len;
            offset += len;
        }
        let window = plan.window as usize;
        let mut hits = HitMap::new();
        for (w, &c) in plan.assignment.iter().enumerate() {
            let start = (w * window).min(stream_len);
            let pattern = patterns.get(c as usize).filter(|p| !p.is_empty());
            for i in 0..window.min(stream_len - start) {
                hits.push(
                    pattern
                        .and_then(|p| measured.get(p.start + i % p.len()))
                        .unwrap_or(false),
                );
            }
        }
        hits
    }

    #[test]
    fn word_level_assemble_matches_the_bitwise_model() {
        let mut rng = sdbp_trace::rng::Rng64::seed_from_u64(0xa55e);
        // Ten windows of 100 accesses (not a word multiple) and a
        // 37-access tail window.
        let stream_len = 1037;
        let plan = |representatives: Vec<u64>, assignment: Vec<u32>| SamplingPlan {
            source: "model".into(),
            source_len: stream_len as u64,
            window: 100,
            warmup_windows: 1,
            seed: 0,
            k: 3,
            bound: 0.1,
            representatives,
            assignment,
        };
        let plans = [
            // The tail represents cluster 2, so windows 7 and 8 cycle its
            // 37-access pattern.
            plan(vec![1, 5, 10], vec![0, 0, 0, 0, 1, 1, 1, 2, 2, 1, 2]),
            // The tail sits in cluster 0 and truncates window 1's pattern.
            plan(vec![1, 4, 7], vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 1, 0]),
        ];
        for plan in &plans {
            let schedule = segment_schedule(stream_len, plan).expect("plan fits its stream");
            // A schedule that measured no span for cluster 1: its windows
            // tile as misses.
            let mut partial = schedule.clone();
            let dropped = partial.clusters.iter().position(|&c| c == 1).unwrap();
            partial.spans.remove(dropped);
            partial.clusters.remove(dropped);
            for schedule in [&schedule, &partial] {
                let measured_len: usize = schedule
                    .spans
                    .iter()
                    .map(|s| s.measure_end - s.measure_start)
                    .sum();
                let measured: HitMap = (0..measured_len).map(|_| rng.gen_bool(0.6)).collect();
                // Also a measured map cut short: positions past its end
                // read as misses.
                let short: HitMap = measured.iter().take(measured_len - 50).collect();
                for measured in [&measured, &short] {
                    let got = assemble(stream_len, plan, schedule, measured);
                    let want = assemble_bitwise(stream_len, plan, schedule, measured);
                    assert_eq!(got.hits, want, "{:?}", plan.assignment);
                    assert_eq!(got.estimated, want.len() as u64 - want.count_ones());
                }
            }
        }
    }

    #[test]
    fn rejects_invalid_plan() {
        let w = workload();
        let llc = CacheConfig::new(64, 8);
        let mut plan = build_plan(&w, llc, &PlanConfig::default().with_window(1024).with_k(4));
        plan.window = 0;
        let err = replay_sampled(&w.llc, &plan, || Cache::new(llc))
            .expect_err("invalid plan must be typed");
        assert!(matches!(err, SampleError::Plan(_)));
    }
}
