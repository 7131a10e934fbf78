//! Fixed-seed property tests for the sampling plane's determinism
//! contract: clustering and plan building are pure functions of their
//! inputs — input permutation and worker count must not change a bit.

use sdbp_cache::recorder::record;
use sdbp_cache::{CacheConfig, Fingerprint, FINGERPRINT_FEATURES};
use sdbp_sample::{build_plan, cluster, KmeansConfig, PlanConfig, SamplingPlan};
use sdbp_trace::kernel::KernelSpec;
use sdbp_trace::rng::Rng64;
use sdbp_trace::TraceBuilder;

/// Mixed-blob fingerprint set with noise, duplicates, and a few exact
/// repeats — the degenerate shapes a tie-breaking bug would trip over.
fn synthetic_points(n: usize, seed: u64) -> Vec<Fingerprint> {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut points: Vec<Fingerprint> = (0..n)
        .map(|i| {
            let base = (i % 4) as f64 * 0.22;
            let mut f = [0.0; FINGERPRINT_FEATURES];
            for v in &mut f {
                *v = base + rng.gen_f64() * 0.08;
            }
            f
        })
        .collect();
    // Exact duplicates: the worst case for index tie-breaking.
    for i in 0..n.min(8) {
        points.push(points[i]);
    }
    points
}

#[test]
fn clustering_is_identical_across_runs() {
    let points = synthetic_points(200, 11);
    let cfg = KmeansConfig::new(4).with_seed(77);
    let a = cluster(&points, &cfg);
    let b = cluster(&points, &cfg);
    assert_eq!(a, b, "same inputs must give bit-identical clusterings");
}

#[test]
fn clustering_is_invariant_under_input_permutation() {
    let points = synthetic_points(150, 5);
    let cfg = KmeansConfig::new(4).with_seed(123);
    let reference = cluster(&points, &cfg);
    for perm_seed in 0..10u64 {
        // Permute the rows; the assignment must permute identically and
        // every centroid must survive bit for bit.
        let mut perm: Vec<usize> = (0..points.len()).collect();
        Rng64::seed_from_u64(perm_seed).shuffle(&mut perm);
        let shuffled: Vec<Fingerprint> = perm.iter().map(|&i| points[i]).collect();
        let permuted = cluster(&shuffled, &cfg);
        assert_eq!(
            permuted.centroids, reference.centroids,
            "centroid bits drifted under permutation {perm_seed}"
        );
        for (j, &i) in perm.iter().enumerate() {
            assert_eq!(
                permuted.assignment[j], reference.assignment[i],
                "row {i} changed cluster under permutation {perm_seed}"
            );
        }
    }
}

#[test]
fn clustering_is_invariant_under_worker_count() {
    let points = synthetic_points(300, 9);
    let reference = cluster(&points, &KmeansConfig::new(5).with_seed(31).with_jobs(1));
    for jobs in [2usize, 3, 7, 16, 1000] {
        let sharded = cluster(&points, &KmeansConfig::new(5).with_seed(31).with_jobs(jobs));
        assert_eq!(sharded, reference, "jobs={jobs} changed the clustering");
    }
}

#[test]
fn different_seeds_may_differ_but_each_is_stable() {
    let points = synthetic_points(100, 2);
    for seed in [1u64, 2, 3] {
        let cfg = KmeansConfig::new(3).with_seed(seed);
        assert_eq!(
            cluster(&points, &cfg),
            cluster(&points, &cfg),
            "seed {seed} unstable"
        );
    }
}

#[test]
fn plan_build_is_bit_stable_across_runs_and_jobs() {
    let t = TraceBuilder::new(17)
        .kernel(KernelSpec::streaming(1 << 22))
        .kernel(KernelSpec::hot_set(1 << 19))
        .build();
    let w = record("determinism", t, 150_000);
    let llc = CacheConfig::new(64, 8);
    let cfg = PlanConfig::default().with_window(1024).with_k(5);
    let reference = build_plan(&w, llc, &cfg);
    let reference_bytes = reference.to_bytes();
    for jobs in [1usize, 2, 8] {
        let again = build_plan(&w, llc, &cfg.clone().with_jobs(jobs));
        assert_eq!(again, reference, "jobs={jobs} changed the plan");
        assert_eq!(again.to_bytes(), reference_bytes, "serialized bits drifted");
    }
    // And the serialized form round-trips to the same plan.
    let back = SamplingPlan::from_bytes(&reference_bytes).expect("round trip");
    assert_eq!(back, reference);
}
