//! Building a [`SamplingPlan`] from a recorded workload: one fingerprint
//! pass, one clustering, one representative per cluster, one stated error
//! bound.
//!
//! The fingerprint pass replays the LLC stream once against the baseline
//! (built-in LRU) cache with a [`WindowFingerprint`] probe attached. Its
//! per-window miss counts double as the calibration data for the plan's
//! error bound: the bound covers both the relative miss-mass
//! misassignment the clustering itself commits on the baseline (how far
//! each window's misses sit from its representative's) and the measured
//! end-to-end error of a cold sampled baseline replay (which sees the
//! warmup bias), inflated by a safety factor to absorb cross-policy
//! transfer, and floored so a perfectly clustered trace still states
//! honest uncertainty.

use crate::kmeans::{cluster, dist2, KmeansConfig};
use crate::plan::SamplingPlan;
use crate::sampled::replay_sampled;
use sdbp_cache::{replay_with_probe, Cache, CacheConfig, RecordedWorkload, WindowFingerprint};

/// Default clustering / plan seed (arbitrary fixed constant; plans are a
/// pure function of it).
pub const DEFAULT_PLAN_SEED: u64 = 0x5db9_5a3b;

/// Tuning knobs for [`build_plan`].
#[derive(Clone, Debug, PartialEq)]
pub struct PlanConfig {
    /// Accesses per window.
    pub window: u32,
    /// Clusters (phases) to extract; clamped to the window count.
    pub k: u32,
    /// Windows replayed unmeasured before each representative.
    pub warmup_windows: u32,
    /// Clustering seed.
    pub seed: u64,
    /// Worker threads for the clustering assignment step; never affects
    /// the plan, only wall time.
    pub jobs: usize,
    /// Multiplier on the measured baseline misassignment when stating the
    /// error bound (covers cross-policy transfer).
    pub safety: f64,
    /// Smallest bound the plan will ever state.
    pub floor: f64,
}

impl Default for PlanConfig {
    fn default() -> Self {
        PlanConfig {
            window: 4096,
            k: 16,
            warmup_windows: 1,
            seed: DEFAULT_PLAN_SEED,
            jobs: 1,
            safety: 2.0,
            floor: 0.005,
        }
    }
}

impl PlanConfig {
    /// Replaces the window size.
    #[must_use]
    pub fn with_window(mut self, window: u32) -> Self {
        self.window = window;
        self
    }

    /// Replaces the cluster count.
    #[must_use]
    pub fn with_k(mut self, k: u32) -> Self {
        self.k = k;
        self
    }

    /// Replaces the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the worker count.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }
}

/// Builds a sampling plan for `workload`'s LLC stream, fingerprinting on
/// an LLC shaped like `llc`.
///
/// The result is a pure function of `(workload, llc, cfg)` — no wall
/// clock, no ambient randomness — and is structurally valid by
/// construction ([`SamplingPlan::validate`] holds).
pub fn build_plan(
    workload: &RecordedWorkload,
    llc: CacheConfig,
    cfg: &PlanConfig,
) -> SamplingPlan {
    let window = cfg.window.max(1);
    let k = cfg.k.max(1);

    // Pass 1: fingerprint every window on the baseline cache.
    let mut probe = WindowFingerprint::new(window as usize, llc.sets);
    replay_with_probe(&workload.llc, &mut Cache::new(llc), &mut probe);
    probe.finish();
    let points = probe.fingerprints();
    let num_windows = points.len();

    // Pass 2: cluster the fingerprints.
    let kcfg = KmeansConfig {
        k: (k as usize).min(num_windows.max(1)),
        seed: cfg.seed,
        max_iters: 64,
        jobs: cfg.jobs,
    };
    let clustering = cluster(points, &kcfg);

    // Pass 3: pick each cluster's representative — the full window whose
    // fingerprint sits closest to the centroid (ties to the earliest
    // window). A partial tail window only represents a cluster that
    // contains nothing else.
    let full_len = window;
    let mut best: Vec<Option<(bool, f64, u64)>> = vec![None; clustering.k()];
    let window_infos = points
        .iter()
        .zip(clustering.assignment.iter())
        .zip(probe.window_lens().iter())
        .enumerate();
    for (w, ((fp, &c), &len)) in window_infos {
        let Some(centroid) = clustering.centroids.get(c as usize) else { continue };
        // Order candidates so any full window beats any partial one, then
        // by distance, then by window index.
        let partial = len != full_len;
        let d = dist2(fp, centroid);
        let candidate = (partial, d, w as u64);
        if let Some(slot) = best.get_mut(c as usize) {
            let better = match slot {
                None => true,
                Some(cur) => candidate < *cur,
            };
            if better {
                *slot = Some(candidate);
            }
        }
    }
    let representatives: Vec<u64> =
        best.iter().filter_map(|s| s.map(|(_, _, w)| w)).collect();

    // Pass 4: state the error bound. On the baseline policy the sampled
    // estimate replaces each window's misses with (a rescaling of) its
    // representative's, so the achievable error is the miss-mass the
    // clustering misassigns; inflate it for cross-policy transfer.
    let miss_counts = probe.miss_counts();
    let lens = probe.window_lens();
    let rep_stats: Vec<(u64, u32)> = representatives
        .iter()
        .map(|&r| {
            let r = usize::try_from(r).unwrap_or(usize::MAX);
            let m = miss_counts.get(r).copied().unwrap_or(0);
            let l = lens.get(r).copied().unwrap_or(1).max(1);
            (m, l)
        })
        .collect();
    let mut misassigned = 0.0f64;
    let mut total_misses = 0u64;
    let per_window = miss_counts
        .iter()
        .zip(lens.iter())
        .zip(clustering.assignment.iter());
    for ((&m, &len), &c) in per_window {
        total_misses += m;
        if let Some(&(rep_m, rep_l)) = rep_stats.get(c as usize) {
            let predicted = rep_m as f64 * f64::from(len) / f64::from(rep_l);
            misassigned += (m as f64 - predicted).abs();
        }
    }
    let base = misassigned / (total_misses.max(1)) as f64;

    let mut plan = SamplingPlan {
        source: workload.name.clone(),
        source_len: workload.llc.len() as u64,
        window,
        warmup_windows: cfg.warmup_windows,
        seed: cfg.seed,
        k,
        bound: 0.0,
        representatives,
        assignment: clustering.assignment,
    };

    // Pass 5: ground the bound in the exact machinery consumers will run.
    // Each representative is replayed from a cold cache with only the
    // plan's warmup, so the achieved error carries a cold-start bias the
    // warm fingerprint pass cannot see. The fingerprint pass already
    // yielded the exact baseline miss count, so measure that bias directly
    // and fold it in: the stated bound covers both the clustering's
    // misassignment and the sampler's own end-to-end baseline error.
    let measured = match replay_sampled(&workload.llc, &plan, || Cache::new(llc)) {
        Ok(sampled) => {
            let exact = total_misses.max(1) as f64;
            (sampled.estimated as f64 - total_misses as f64).abs() / exact
        }
        // Unreachable for a plan built here (stream and plan agree by
        // construction); state maximum uncertainty rather than panic.
        Err(_) => 1.0,
    };
    plan.bound = (base.max(measured) * cfg.safety + cfg.floor).clamp(cfg.floor, 1.0);
    // The builder only emits structurally valid plans; a violation here is
    // a bug in this module, not in the caller's data.
    assert!(plan.validate().is_ok(), "builder produced an invalid plan");
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbp_cache::recorder::record;
    use sdbp_trace::kernel::KernelSpec;
    use sdbp_trace::TraceBuilder;

    fn workload() -> RecordedWorkload {
        let t = TraceBuilder::new(21)
            .kernel(KernelSpec::streaming(1 << 22))
            .kernel(KernelSpec::hot_set(1 << 19))
            .build();
        record("builder-test", t, 200_000)
    }

    #[test]
    fn builds_a_valid_plan() {
        let w = workload();
        let cfg = PlanConfig::default().with_window(1024).with_k(4);
        let plan = build_plan(&w, CacheConfig::new(64, 8), &cfg);
        plan.validate().expect("builder output must validate");
        assert_eq!(plan.source, "builder-test");
        assert_eq!(plan.source_len, w.llc.len() as u64);
        assert_eq!(plan.num_windows(), w.llc.len().div_ceil(1024));
        assert!(plan.clusters() <= 4 && plan.clusters() >= 1);
        assert!(plan.bound >= cfg.floor && plan.bound <= 1.0);
    }

    #[test]
    fn build_is_deterministic_across_jobs() {
        let w = workload();
        let base = PlanConfig::default().with_window(1024).with_k(4);
        let a = build_plan(&w, CacheConfig::new(64, 8), &base);
        let b = build_plan(&w, CacheConfig::new(64, 8), &base.clone().with_jobs(4));
        assert_eq!(a, b, "worker count must not leak into the plan");
        assert_eq!(a.to_bytes(), b.to_bytes());
    }

    #[test]
    fn tail_window_is_not_a_representative_unless_alone() {
        let w = workload();
        // A window size that does not divide the stream leaves a partial
        // tail window.
        let window = 1000;
        assert!(
            !w.llc.len().is_multiple_of(window),
            "fixture must have a partial tail"
        );
        let cfg = PlanConfig::default().with_window(u32::try_from(window).unwrap()).with_k(4);
        let plan = build_plan(&w, CacheConfig::new(64, 8), &cfg);
        let tail = (plan.num_windows() - 1) as u64;
        let tail_cluster = plan.assignment.last().copied().expect("windows exist");
        let population = plan
            .populations()
            .get(tail_cluster as usize)
            .copied()
            .unwrap_or(0);
        for &rep in &plan.representatives {
            if rep == tail {
                assert_eq!(population, 1, "tail may only represent a singleton cluster");
            }
        }
    }
}
