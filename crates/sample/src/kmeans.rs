//! Deterministic fixed-seed k-means over window fingerprints.
//!
//! Clustering is the one stochastic step of the sampling plane, so it is
//! engineered for bit-stability along three axes:
//!
//! 1. **Runs.** All randomness comes from an [`Rng64`] forked from the
//!    config seed; no wall clock, no `HashMap` iteration.
//! 2. **Input permutation.** Every order-sensitive step — initial centroid
//!    seeding, farthest-point selection, and the floating-point centroid
//!    accumulation — walks the points in a canonical *value-sorted* order,
//!    so shuffling the input rows permutes the assignment vector but
//!    changes no centroid bit.
//! 3. **Worker count.** The only parallel step (nearest-centroid
//!    assignment) is per-point independent; sharding it across `jobs`
//!    threads cannot change any result bit.
//!
//! Ties are never left to float luck: equal distances resolve to the
//! lowest centroid index, equal farthest-point candidates to the earliest
//! point in sorted order, and the final clusters are renumbered by
//! centroid value so cluster ids are themselves canonical.

use sdbp_cache::Fingerprint;
use sdbp_trace::rng::Rng64;
use std::cmp::Ordering;

/// Tuning knobs for [`cluster`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KmeansConfig {
    /// Clusters requested (the effective count shrinks to the number of
    /// distinct points when the input is less diverse).
    pub k: usize,
    /// Seed for the initial-centroid draw.
    pub seed: u64,
    /// Cap on Lloyd iterations; the loop usually converges first.
    pub max_iters: usize,
    /// Worker threads for the assignment step (≤ 1 runs inline). Never
    /// affects the result, only the wall time.
    pub jobs: usize,
}

impl KmeansConfig {
    /// A config with `k` clusters and the sampling plane's defaults for
    /// everything else.
    #[must_use]
    pub fn new(k: usize) -> Self {
        KmeansConfig {
            k,
            seed: 0x5db9_5a3b,
            max_iters: 64,
            jobs: 1,
        }
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

/// Result of [`cluster`]: a hard assignment of every point plus the final
/// centroids, with clusters renumbered canonically by centroid value.
#[derive(Clone, Debug, PartialEq)]
pub struct Clustering {
    /// Cluster id of each input point, in input order.
    pub assignment: Vec<u32>,
    /// Final centroid of each cluster (`assignment` values index this).
    pub centroids: Vec<Fingerprint>,
    /// Lloyd iterations actually run.
    pub iterations: usize,
    /// Whether assignments reached a fixed point before `max_iters`.
    pub converged: bool,
}

impl Clustering {
    /// Clusters produced (may be fewer than requested when the input has
    /// fewer distinct points).
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Points per cluster, indexed by cluster id.
    pub fn populations(&self) -> Vec<u64> {
        let mut pops = vec![0u64; self.centroids.len()];
        for &c in &self.assignment {
            if let Some(p) = pops.get_mut(c as usize) {
                *p += 1;
            }
        }
        pops
    }
}

/// Total order on fingerprints: lexicographic over `f64::total_cmp`.
pub(crate) fn fp_cmp(a: &Fingerprint, b: &Fingerprint) -> Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        let o = x.total_cmp(y);
        if o != Ordering::Equal {
            return o;
        }
    }
    Ordering::Equal
}

/// Squared Euclidean distance between two fingerprints.
pub(crate) fn dist2(a: &Fingerprint, b: &Fingerprint) -> f64 {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Index of the centroid nearest to `p`; ties go to the lowest index.
fn nearest(centroids: &[Fingerprint], p: &Fingerprint) -> u32 {
    let mut best = 0u32;
    let mut best_d = f64::INFINITY;
    for (i, c) in centroids.iter().enumerate() {
        let d = dist2(c, p);
        // Strict `<` keeps the lowest index on exact ties.
        if d < best_d {
            best_d = d;
            best = u32::try_from(i).unwrap_or(u32::MAX);
        }
    }
    best
}

/// Nearest-centroid assignment for every point, sharded over `jobs`
/// threads. Per-point independence makes the result identical for every
/// worker count.
fn assign_all(points: &[Fingerprint], centroids: &[Fingerprint], jobs: usize) -> Vec<u32> {
    let jobs = jobs.clamp(1, points.len().max(1));
    if jobs == 1 {
        return points.iter().map(|p| nearest(centroids, p)).collect();
    }
    let chunk = points.len().div_ceil(jobs);
    let mut out: Vec<u32> = Vec::with_capacity(points.len());
    std::thread::scope(|scope| {
        let workers: Vec<_> = points
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|p| nearest(centroids, p))
                        .collect::<Vec<u32>>()
                })
            })
            .collect();
        for worker in workers {
            if let Ok(part) = worker.join() {
                out.extend(part);
            }
        }
    });
    // Workers only run panic-free code, so every shard must have arrived.
    assert!(out.len() == points.len(), "assignment shard lost");
    out
}

/// Seeded farthest-point ("k-means++ without the dice") initial
/// centroids, drawn over the value-sorted point order so the choice is
/// independent of input permutation. Stops early once every remaining
/// point duplicates a chosen centroid.
fn initial_centroids(sorted: &[Fingerprint], k: usize, seed: u64) -> Vec<Fingerprint> {
    let mut centroids: Vec<Fingerprint> = Vec::with_capacity(k);
    if sorted.is_empty() || k == 0 {
        return centroids;
    }
    let mut rng = Rng64::seed_from_u64(seed).fork(0);
    let first = rng.gen_range(0..sorted.len());
    if let Some(p) = sorted.get(first) {
        centroids.push(*p);
    }
    while centroids.len() < k {
        // The point farthest from its nearest chosen centroid; ties break
        // to the earliest point in sorted order via strict `>`.
        let mut best: Option<&Fingerprint> = None;
        let mut best_d = 0.0f64;
        for p in sorted {
            let d = centroids
                .iter()
                .map(|c| dist2(c, p))
                .fold(f64::INFINITY, f64::min);
            if d > best_d {
                best_d = d;
                best = Some(p);
            }
        }
        match best {
            Some(p) if best_d > 0.0 => centroids.push(*p),
            // All remaining points coincide with a centroid: the input has
            // fewer distinct values than k.
            _ => break,
        }
    }
    centroids
}

/// Clusters `points` into at most `cfg.k` groups with deterministic
/// Lloyd k-means.
///
/// The returned [`Clustering`] is a pure function of `(points-as-a-set,
/// cfg.k, cfg.seed, cfg.max_iters)`: permuting the input rows or changing
/// `cfg.jobs` permutes `assignment` accordingly but reproduces every
/// centroid and cluster id bit for bit.
pub fn cluster(points: &[Fingerprint], cfg: &KmeansConfig) -> Clustering {
    if points.is_empty() || cfg.k == 0 {
        return Clustering {
            assignment: Vec::new(),
            centroids: Vec::new(),
            iterations: 0,
            converged: true,
        };
    }
    // Canonical order: every order-sensitive step below walks this.
    let mut sorted: Vec<Fingerprint> = points.to_vec();
    sorted.sort_by(fp_cmp);
    let mut centroids = initial_centroids(&sorted, cfg.k.min(points.len()), cfg.seed);
    if centroids.is_empty() {
        // Unreachable for non-empty input, but keep the contract total.
        return Clustering {
            assignment: vec![0; points.len()],
            centroids: Vec::new(),
            iterations: 0,
            converged: true,
        };
    }

    let mut assignment: Vec<u32> = Vec::new();
    let mut iterations = 0;
    let mut converged = false;
    while iterations < cfg.max_iters.max(1) {
        iterations += 1;
        let next = assign_all(points, &centroids, cfg.jobs);
        let settled = next == assignment && iterations > 1;
        assignment = next;
        if settled {
            converged = true;
            break;
        }
        // Centroid update. Accumulate in sorted order so the f64 sums do
        // not depend on how the caller ordered the rows; assignment of a
        // sorted row is recomputed (cheap) rather than looked up to keep
        // this loop index-free.
        let mut sums = vec![[0.0f64; sdbp_cache::FINGERPRINT_FEATURES]; centroids.len()];
        let mut counts = vec![0u64; centroids.len()];
        for p in &sorted {
            let c = nearest(&centroids, p) as usize;
            if let (Some(sum), Some(count)) = (sums.get_mut(c), counts.get_mut(c)) {
                for (slot, v) in sum.iter_mut().zip(p.iter()) {
                    *slot += v;
                }
                *count += 1;
            }
        }
        for (c, (sum, count)) in centroids.iter_mut().zip(sums.iter().zip(counts.iter())) {
            if *count > 0 {
                for (slot, v) in c.iter_mut().zip(sum.iter()) {
                    *slot = v / *count as f64;
                }
            }
            // Empty clusters keep their previous centroid; they can win
            // points back in a later iteration.
        }
    }

    // Canonical cluster numbering: sort clusters by centroid value so ids
    // carry no trace of initialization order.
    let mut order: Vec<usize> = (0..centroids.len()).collect();
    order.sort_by(|&a, &b| match (centroids.get(a), centroids.get(b)) {
        (Some(x), Some(y)) => fp_cmp(x, y),
        _ => Ordering::Equal,
    });
    let mut remap = vec![0u32; centroids.len()];
    for (new_id, &old_id) in order.iter().enumerate() {
        if let Some(slot) = remap.get_mut(old_id) {
            *slot = u32::try_from(new_id).unwrap_or(u32::MAX);
        }
    }
    let centroids: Vec<Fingerprint> = order
        .iter()
        .filter_map(|&old| centroids.get(old).copied())
        .collect();
    let assignment: Vec<u32> = assignment
        .iter()
        .map(|&c| remap.get(c as usize).copied().unwrap_or(0))
        .collect();

    Clustering {
        assignment,
        centroids,
        iterations,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_points(n: usize, seed: u64) -> Vec<Fingerprint> {
        // Three well-separated blobs in fingerprint space.
        let mut rng = Rng64::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let base = (i % 3) as f64 * 0.3;
                let mut f = [0.0; sdbp_cache::FINGERPRINT_FEATURES];
                for v in &mut f {
                    *v = base + rng.gen_f64() * 0.05;
                }
                f
            })
            .collect()
    }

    #[test]
    fn recovers_well_separated_blobs() {
        let points = synthetic_points(300, 7);
        let c = cluster(&points, &KmeansConfig::new(3));
        assert_eq!(c.k(), 3);
        assert!(c.converged, "blobs this clean must converge");
        // All points of one residue class land in one cluster.
        for i in 0..3 {
            let ids: std::collections::BTreeSet<u32> = points
                .iter()
                .enumerate()
                .filter(|(j, _)| j % 3 == i)
                .filter_map(|(j, _)| c.assignment.get(j).copied())
                .collect();
            assert_eq!(ids.len(), 1, "blob {i} split across clusters {ids:?}");
        }
        assert_eq!(c.populations().iter().sum::<u64>(), 300);
    }

    #[test]
    fn k_shrinks_to_distinct_points() {
        let a = [0.1; sdbp_cache::FINGERPRINT_FEATURES];
        let b = [0.9; sdbp_cache::FINGERPRINT_FEATURES];
        let points = vec![a, b, a, b, a];
        let c = cluster(&points, &KmeansConfig::new(4));
        assert_eq!(c.k(), 2, "only two distinct points exist");
        assert_eq!(c.assignment.len(), 5);
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let c = cluster(&[], &KmeansConfig::new(3));
        assert_eq!(c.k(), 0);
        assert!(c.assignment.is_empty());
        let one = [[0.5; sdbp_cache::FINGERPRINT_FEATURES]];
        let c = cluster(&one, &KmeansConfig::new(8));
        assert_eq!(c.k(), 1);
        assert_eq!(c.assignment, vec![0]);
    }

    #[test]
    fn cluster_ids_are_canonical() {
        // Ids must be ordered by centroid value regardless of seed.
        let points = synthetic_points(120, 3);
        for seed in [1u64, 99, 12345] {
            let c = cluster(&points, &KmeansConfig::new(3).with_seed(seed));
            for pair in c.centroids.windows(2) {
                if let [x, y] = pair {
                    assert_eq!(
                        fp_cmp(x, y),
                        Ordering::Less,
                        "ids not canonical (seed {seed})"
                    );
                }
            }
        }
    }
}
