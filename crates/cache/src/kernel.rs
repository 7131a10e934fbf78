//! The set-sharded replay kernel: the shared engine behind every replay
//! that wants one trace to scale across cores.
//!
//! Replay of a set-associative cache decomposes by **set**: for a
//! set-local policy (one whose state is partitioned by set row, like the
//! [`MetaPlane`](crate::meta::MetaPlane) lanes of LRU stamps, PLRU tree
//! bits, or SRRIP RRPVs), the outcome of an access depends only on the
//! earlier accesses that mapped to the *same* set. A [`ShardPlan`] splits
//! the set index space into contiguous, disjoint ranges; each shard
//! replays only the accesses falling in its range, span by span, on its
//! own persistent cache, and the shard results are folded back into the
//! exact serial [`ReplayResult`] of [`replay_spans`](crate::replay::replay_spans) — counters summed
//! **by shard index**, hit bits re-interleaved by walking the measured
//! ranges in stream order, and any [`ReplayProbe`] driven in that order,
//! so window probes observe precisely the serial sequence.
//!
//! **What may be sharded.** Policies with global state — a shared RNG
//! draw sequence (`random`), set-dueling PSEL counters over leader sets
//! (`rrip`/`dip`/`tadip`), or predictor tables trained by every set
//! (`tdbp`, `cdbp`, `sampler`, ...) — observe cross-set interleaving, so
//! exact sharding is impossible for them; the policy registry marks each
//! entry with a `shardable` capability flag, and the replay front door
//! (`sdbp::replay`) falls back to the serial loop when it is false. See
//! DESIGN.md §13 for the full shardability analysis.
//!
//! Sharding partitions whatever span list it is given, so exact and
//! sampled replays share this one loop. Each shard runs on its own scoped
//! thread, and the results are joined in shard order.

use crate::cache::Cache;
use crate::meta::HitMap;
use crate::recorder::LlcAccess;
use crate::replay::{Outcomes, ReplayProbe, ReplayResult, Span, SpanError};
use crate::stats::CacheStats;

/// A partition of the set index space into contiguous, disjoint ranges,
/// one per shard.
///
/// Ranges are near-equal: with `sets = q * shards + r`, the first `r`
/// shards own `q + 1` sets each and the rest own `q`. The shard count is
/// clamped to `1..=sets`, so every shard owns at least one set.
///
/// ```
/// use sdbp_cache::kernel::ShardPlan;
///
/// let plan = ShardPlan::new(64, 4);
/// assert_eq!(plan.shards(), 4);
/// assert_eq!(ShardPlan::new(64, 100).shards(), 64);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ShardPlan {
    sets: usize,
    /// Sets owned by each of the first `rem` shards (`base + 1`).
    base: usize,
    rem: usize,
    shards: usize,
}

impl ShardPlan {
    /// Partitions `sets` cache sets over `shards` shards (clamped to
    /// `1..=sets`).
    ///
    /// # Panics
    ///
    /// Panics if `sets` is zero — a cache with no sets is a geometry bug
    /// upstream of any replay.
    pub fn new(sets: usize, shards: usize) -> ShardPlan {
        assert!(sets > 0, "a shard plan needs at least one set");
        let shards = shards.clamp(1, sets);
        ShardPlan {
            sets,
            base: sets / shards,
            rem: sets % shards,
            shards,
        }
    }

    /// Number of shards.
    pub const fn shards(&self) -> usize {
        self.shards
    }

    /// Number of cache sets the plan partitions.
    pub const fn sets(&self) -> usize {
        self.sets
    }

    /// The shard owning `set`. Sets at or beyond [`sets`](Self::sets)
    /// land in the last shard (they cannot occur for a stream recorded
    /// against the plan's geometry).
    fn shard_of(&self, set: usize) -> usize {
        let wide = self.rem * (self.base + 1);
        let shard = if set < wide {
            set / (self.base + 1)
        } else {
            // base == 0 means shards == sets and rem == 0 cannot happen;
            // unreachable for a valid plan, but stay total.
            match (set - wide).checked_div(self.base) {
                Some(narrow) => self.rem + narrow,
                None => self.shards - 1,
            }
        };
        shard.min(self.shards - 1)
    }
}

/// Why a sharded replay could not be assembled.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ShardError {
    /// The number of shard results does not match the plan.
    ShardCount {
        /// Shards in the plan.
        expected: usize,
        /// Results supplied.
        got: usize,
    },
    /// A shard produced fewer outcomes than the stream routes to it.
    HitsExhausted {
        /// The underfull shard.
        shard: usize,
    },
    /// A shard produced more outcomes than the stream routes to it.
    HitsLeftOver {
        /// The overfull shard.
        shard: usize,
        /// Outcomes never consumed by the merge.
        unused: usize,
    },
    /// The shard caches were built for a different set count than the
    /// plan partitions.
    Geometry {
        /// Sets the plan partitions.
        plan_sets: usize,
        /// Sets of the factory-built cache.
        cache_sets: usize,
    },
    /// A span does not fit the stream.
    Span(SpanError),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::ShardCount { expected, got } => {
                write!(
                    f,
                    "plan has {expected} shards but {got} results were supplied"
                )
            }
            ShardError::HitsExhausted { shard } => {
                write!(
                    f,
                    "shard {shard} produced fewer outcomes than the stream routes to it"
                )
            }
            ShardError::HitsLeftOver { shard, unused } => {
                write!(
                    f,
                    "shard {shard} produced {unused} outcomes the stream never consumed"
                )
            }
            ShardError::Geometry {
                plan_sets,
                cache_sets,
            } => {
                write!(
                    f,
                    "plan partitions {plan_sets} sets but the cache factory builds {cache_sets}"
                )
            }
            ShardError::Span(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ShardError {}

/// Refills `queue` with the accesses of `part` owned by `shard` under
/// `plan`, in stream order. Each shard filters the stream itself, so
/// shard tasks share no partition buffers.
fn fill_queue(queue: &mut Vec<LlcAccess>, part: &[LlcAccess], plan: &ShardPlan, shard: usize) {
    queue.clear();
    queue.extend(
        part.iter()
            .filter(|a| plan.shard_of(a.block.set_index(plan.sets())) == shard)
            .copied(),
    );
}

/// Merges per-shard results back into the serial [`ReplayResult`].
///
/// Counters are summed **in ascending shard index order** (never
/// completion order); hit bits are re-interleaved by walking the
/// `measured` ranges in order and popping the next outcome from each
/// access's owning shard; `probe` (when given) is driven in that order
/// with the merged outcomes — exactly the sequence the serial loop
/// would have produced.
///
/// # Errors
///
/// [`ShardError`] when the result count disagrees with the plan or the
/// shard outcome counts do not tile the measured ranges.
fn merge_shards(
    measured: &[&[LlcAccess]],
    plan: &ShardPlan,
    results: &[ReplayResult],
    mut probe: Option<&mut dyn ReplayProbe>,
) -> Result<ReplayResult, ShardError> {
    if results.len() != plan.shards() {
        return Err(ShardError::ShardCount {
            expected: plan.shards(),
            got: results.len(),
        });
    }
    let mut stats = CacheStats::default();
    for result in results {
        stats += &result.stats;
    }
    let mut cursors = vec![0usize; results.len()];
    let mut hits = HitMap::with_capacity(measured.iter().map(|m| m.len()).sum());
    for a in measured.iter().flat_map(|m| m.iter()) {
        let shard = plan.shard_of(a.block.set_index(plan.sets()));
        let Some((result, cursor)) = results.get(shard).zip(cursors.get_mut(shard)) else {
            return Err(ShardError::HitsExhausted { shard });
        };
        let Some(hit) = result.hits.get(*cursor) else {
            return Err(ShardError::HitsExhausted { shard });
        };
        *cursor += 1;
        if let Some(p) = probe.as_deref_mut() {
            p.on_access_detail(hits.len(), a, hit);
        }
        hits.push(hit);
    }
    for (shard, (result, cursor)) in results.iter().zip(&cursors).enumerate() {
        if *cursor != result.hits.len() {
            return Err(ShardError::HitsLeftOver {
                shard,
                unused: result.hits.len() - cursor,
            });
        }
    }
    Ok(ReplayResult { stats, hits })
}

/// Runs `task` for every shard index on its own scoped thread and returns
/// the results **in shard order**, never completion order. A panicking
/// task propagates its panic to the caller at join.
fn on_threads<T: Send>(shards: usize, task: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let task = &task;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shards)
            .map(|shard| scope.spawn(move || task(shard)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

/// [`replay_spans`](crate::replay::replay_spans) sharded by `plan`: each
/// shard builds one cache with `factory`, runs its accesses of every span
/// through it in span order ([`Cache::run`], warm-ups discarded), and the
/// results are merged deterministically by shard index, driving `probe`
/// over the measured accesses in span order.
///
/// **Exactness requires a set-local policy** — the replay front door
/// (`sdbp::replay`) gates on the registry's `shardable` capability flag
/// and uses the serial loop otherwise. Efficiency tracking is not carried
/// across shards (replay paths never enable it).
///
/// # Errors
///
/// [`ShardError::Span`] when a span does not fit `stream`,
/// [`ShardError::Geometry`] when the factory's set count disagrees with
/// the plan, or a merge error (which would indicate a kernel bug, since
/// the queues are derived from the same plan).
pub fn replay_sharded(
    stream: &[LlcAccess],
    spans: &[Span],
    plan: &ShardPlan,
    factory: &(dyn Fn() -> Cache + Sync),
    probe: Option<&mut dyn ReplayProbe>,
) -> Result<ReplayResult, ShardError> {
    let slices = spans
        .iter()
        .map(|span| span.slices(stream))
        .collect::<Result<Vec<_>, _>>()
        .map_err(ShardError::Span)?;
    let results = on_threads(plan.shards(), |shard| {
        let mut cache = factory();
        let cache_sets = cache.config().sets;
        if cache_sets != plan.sets() {
            return Err(ShardError::Geometry {
                plan_sets: plan.sets(),
                cache_sets,
            });
        }
        let mut queue = Vec::new();
        let mut hits = HitMap::new();
        for &(warmup, measured) in &slices {
            fill_queue(&mut queue, warmup, plan, shard);
            cache.run(&queue, Outcomes::Discard);
            fill_queue(&mut queue, measured, plan, shard);
            cache.run(&queue, Outcomes::Record(&mut hits));
        }
        cache.finish();
        Ok(ReplayResult {
            stats: cache.stats(),
            hits,
        })
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    let measured: Vec<&[LlcAccess]> = slices.iter().map(|&(_, m)| m).collect();
    merge_shards(&measured, plan, &results, probe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;
    use crate::recorder::record;
    use crate::replay::{replay, replay_spans, replay_with_probe, WindowMisses};
    use sdbp_trace::kernel::KernelSpec;
    use sdbp_trace::TraceBuilder;

    fn workload() -> crate::recorder::RecordedWorkload {
        let t = TraceBuilder::new(8)
            .kernel(KernelSpec::streaming(1 << 22))
            .kernel(KernelSpec::hot_set(1 << 14))
            .build();
        record("w", t, 100_000)
    }

    #[test]
    fn plan_ranges_partition_the_sets() {
        for (sets, shards) in [(64, 1), (64, 4), (64, 7), (2048, 8), (5, 9), (1, 3)] {
            let plan = ShardPlan::new(sets, shards);
            assert!(plan.shards() >= 1 && plan.shards() <= sets);
            // Walking the sets in order, the owning shard starts at 0 and
            // steps up by at most one: contiguous ranges in shard order.
            let mut sizes = vec![0usize; plan.shards()];
            let mut prev = 0;
            for set in 0..sets {
                let shard = plan.shard_of(set);
                assert!(
                    shard == prev || shard == prev + 1,
                    "sets={sets} shards={shards} set={set}"
                );
                sizes[shard] += 1;
                prev = shard;
            }
            assert!(sizes.iter().all(|&n| n > 0), "every shard owns a set");
            // Near-equal: sizes differ by at most one.
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "{sizes:?}");
        }
    }

    /// A gappy span list over `n` accesses: warm-ups clipped by the
    /// previous span's end, a skipped stretch, and an empty warm-up.
    fn gappy_spans(n: usize) -> [Span; 3] {
        [
            Span {
                warmup_start: 0,
                measure_start: n / 10,
                measure_end: n / 5,
            },
            Span {
                warmup_start: n / 5,
                measure_start: n / 4,
                measure_end: n / 2,
            },
            Span {
                warmup_start: 3 * n / 4,
                measure_start: 3 * n / 4,
                measure_end: n,
            },
        ]
    }

    #[test]
    fn sharded_lru_is_bit_identical_at_every_shard_count() {
        let w = workload();
        let n = w.llc.len();
        let config = CacheConfig::new(64, 8);
        for spans in [&[Span::whole(n)][..], &gappy_spans(n)] {
            let serial = replay_spans(&w.llc, spans, &mut Cache::new(config), None)
                .expect("spans fit the stream");
            for shards in [1, 2, 3, 4, 7, 8, 64] {
                let plan = ShardPlan::new(config.sets, shards);
                let sharded =
                    replay_sharded(&w.llc, spans, &plan, &move || Cache::new(config), None)
                        .expect("plan and factory agree");
                assert_eq!(sharded, serial, "shards={shards} spans={spans:?}");
            }
        }
    }

    #[test]
    fn probes_interleave_in_original_access_order() {
        let w = workload();
        let config = CacheConfig::new(64, 8);
        let mut serial_probe = WindowMisses::new(777);
        let serial = replay_with_probe(&w.llc, &mut Cache::new(config), &mut serial_probe);
        let plan = ShardPlan::new(config.sets, 4);
        let mut sharded_probe = WindowMisses::new(777);
        let sharded = replay_sharded(
            &w.llc,
            &[Span::whole(w.llc.len())],
            &plan,
            &move || Cache::new(config),
            Some(&mut sharded_probe),
        )
        .expect("sharded replay");
        assert_eq!(sharded, serial);
        assert_eq!(sharded_probe.counts(), serial_probe.counts());
    }

    fn shard_queue(stream: &[LlcAccess], plan: &ShardPlan, shard: usize) -> Vec<LlcAccess> {
        let mut queue = Vec::new();
        fill_queue(&mut queue, stream, plan, shard);
        queue
    }

    #[test]
    fn merge_rejects_wrong_result_counts_and_short_shards() {
        let w = workload();
        let config = CacheConfig::new(64, 8);
        let plan = ShardPlan::new(config.sets, 2);
        let results: Vec<ReplayResult> = (0..2)
            .map(|s| replay(&shard_queue(&w.llc, &plan, s), &mut Cache::new(config)))
            .collect();
        let measured = [&w.llc[..]];
        let err = merge_shards(&measured, &plan, &results[..1], None)
            .expect_err("one result for a two-shard plan");
        assert_eq!(
            err,
            ShardError::ShardCount {
                expected: 2,
                got: 1
            }
        );
        assert!(err.to_string().contains("2 shards"));
        // Truncate shard 1's outcomes: the merge must notice.
        let mut short = results.clone();
        short[1].hits = short[1].hits.iter().take(1).collect();
        let err = merge_shards(&measured, &plan, &short, None).expect_err("short shard");
        assert!(
            matches!(err, ShardError::HitsExhausted { shard: 1 }),
            "{err:?}"
        );
        // And a full merge round-trips.
        let merged = merge_shards(&measured, &plan, &results, None).expect("full merge");
        assert_eq!(merged, replay(&w.llc, &mut Cache::new(config)));
    }

    #[test]
    fn geometry_mismatch_is_a_typed_error() {
        let w = workload();
        let plan = ShardPlan::new(128, 4);
        let err = replay_sharded(
            &w.llc,
            &[Span::whole(w.llc.len())],
            &plan,
            &|| Cache::new(CacheConfig::new(64, 8)),
            None,
        )
        .expect_err("plan partitions 128 sets, cache has 64");
        assert_eq!(
            err,
            ShardError::Geometry {
                plan_sets: 128,
                cache_sets: 64
            }
        );
        assert!(err.to_string().contains("128"));
        let n = w.llc.len();
        let misfit = Span {
            warmup_start: 0,
            measure_start: n,
            measure_end: n + 1,
        };
        let err = replay_sharded(
            &w.llc,
            &[misfit],
            &ShardPlan::new(64, 4),
            &|| Cache::new(CacheConfig::new(64, 8)),
            None,
        )
        .expect_err("a span past the stream's end");
        assert!(err.to_string().contains("does not fit"), "{err}");
    }

    #[test]
    fn shard_queues_tile_the_stream() {
        let w = workload();
        let plan = ShardPlan::new(64, 5);
        let queues: Vec<Vec<LlcAccess>> = (0..plan.shards())
            .map(|s| shard_queue(&w.llc, &plan, s))
            .collect();
        assert_eq!(queues.iter().map(Vec::len).sum::<usize>(), w.llc.len());
        // Each queue preserves stream order within its sets.
        let mut cursors = vec![0usize; plan.shards()];
        for a in &w.llc {
            let s = plan.shard_of(a.block.set_index(plan.sets()));
            assert_eq!(queues[s][cursors[s]].block, a.block);
            cursors[s] += 1;
        }
    }
}
