//! Round-trip property tests, driven by the in-repo deterministic RNG
//! (fixed seeds, exact reproduction — the PR 1 testing style): for every
//! synthetic workload kernel archetype, `record → replay` through the
//! `.sdbt` container yields the identical instruction sequence, the
//! identical recorded LLC access stream, and identical miss counts under
//! both LRU and the paper's SDBP sampler.

use sdbp::policies;
use sdbp_cache::recorder::record;
use sdbp_cache::replay::replay;
use sdbp_cache::{Cache, CacheConfig};
use sdbp_trace::kernel::KernelSpec;
use sdbp_trace::rng::Rng64;
use sdbp_trace::{Instr, TraceBuilder};
use sdbp_traceio::{BufferedTrace, TraceMeta, TraceWriter};
use std::io::Cursor;

const CASES: u64 = 24;

/// Deferred cache constructor, so each policy replays from a fresh cache.
type CacheBuilder = Box<dyn Fn() -> Cache>;

/// Every kernel archetype the suite composes workloads from.
fn kernel_archetypes() -> Vec<(&'static str, KernelSpec)> {
    vec![
        ("streaming", KernelSpec::streaming(1 << 20)),
        ("scan_burst", KernelSpec::scan_burst(1 << 18, 2)),
        ("hot_set", KernelSpec::hot_set(1 << 14)),
        ("generational", KernelSpec::generational(1 << 18, 3, 32)),
        ("adversarial", KernelSpec::adversarial(1 << 18, 3, 32)),
        ("pointer_chase", KernelSpec::pointer_chase(1 << 18)),
        (
            "chase_revisit",
            KernelSpec::pointer_chase_with_revisit(1 << 18, 0.3),
        ),
        (
            "classed",
            KernelSpec::classed(1 << 19, 2000, vec![(2.0, 1), (1.0, 4)]).variants(8),
        ),
        (
            "classed_ambiguous",
            KernelSpec::classed_ambiguous(1 << 19, 2000, vec![(1.2, 2), (1.0, 16)]).variants(8),
        ),
        (
            "stack_distance",
            KernelSpec::stack_distance(1 << 19, 0.7, 500.0),
        ),
    ]
}

/// Writes `instrs` into an in-memory `.sdbt` and decodes them back out.
fn container_round_trip(name: &str, seed: u64, instrs: &[Instr]) -> Vec<Instr> {
    let mut buf = Cursor::new(Vec::new());
    let mut writer = TraceWriter::new(&mut buf, TraceMeta::new(name, seed))
        .expect("header writes")
        // Small chunks so every trace crosses several chunk boundaries.
        .chunk_records(1 << 10);
    writer
        .write_all(instrs.iter().copied())
        .expect("records write");
    let summary = writer.finish().expect("finish");
    assert_eq!(summary.instructions, instrs.len() as u64, "{name}");
    assert!(summary.chunks >= 1, "{name}");

    let trace = BufferedTrace::from_bytes(buf.into_inner()).expect("trace indexes");
    assert_eq!(trace.meta().name, name);
    assert_eq!(trace.meta().seed, seed);
    assert_eq!(trace.meta().count, instrs.len() as u64);
    decode_all(&trace)
}

/// Every record of `trace`, in file order.
fn decode_all(trace: &BufferedTrace<'_>) -> Vec<Instr> {
    let mut out = Vec::new();
    let mut batches = trace.batches();
    while let Some(batch) = batches.try_next().expect("clean replay") {
        out.extend(batch.iter());
    }
    out
}

#[test]
fn every_kernel_archetype_replays_bit_exactly() {
    let mut gen = Rng64::seed_from_u64(0x7_1ace_0001);
    for (name, spec) in kernel_archetypes() {
        for _ in 0..CASES / 8 {
            let seed = gen.next_u64();
            let original: Vec<Instr> = TraceBuilder::new(seed)
                .kernel(spec.clone())
                .build()
                .take(30_000)
                .collect();
            let replayed = container_round_trip(name, seed, &original);
            assert_eq!(replayed, original, "{name} seed {seed}");
        }
    }
}

#[test]
fn replayed_traces_record_identical_llc_streams_and_miss_counts() {
    // The acceptance property behind `trace record` / `trace replay`:
    // simulating from the container must be indistinguishable from
    // simulating from the generator, all the way down to per-policy miss
    // counts.
    let mut gen = Rng64::seed_from_u64(0x7_1ace_0002);
    let llc = CacheConfig::new(256, 16);
    for (name, spec) in kernel_archetypes() {
        let seed = gen.next_u64();
        let original: Vec<Instr> = TraceBuilder::new(seed)
            .kernel(spec)
            .build()
            .take(40_000)
            .collect();
        let replayed = container_round_trip(name, seed, &original);

        let direct = record(name, original.iter().copied(), 40_000);
        let from_file = record(name, replayed.iter().copied(), 40_000);
        assert_eq!(
            direct.records, from_file.records,
            "{name}: timing records differ"
        );
        assert_eq!(direct.llc, from_file.llc, "{name}: LLC streams differ");

        let builders: [(&str, CacheBuilder); 2] = [
            ("lru", Box::new(move || Cache::new(llc))),
            (
                "sdbp",
                Box::new(move || Cache::with_policy(llc, policies::sampler_lru(llc))),
            ),
        ];
        for (policy, build) in &builders {
            let a = replay(&direct.llc, &mut build()).stats.misses;
            let b = replay(&from_file.llc, &mut build()).stats.misses;
            assert_eq!(a, b, "{name}/{policy}: miss counts diverge");
        }
    }
}

#[test]
fn multi_kernel_compositions_round_trip() {
    let mut gen = Rng64::seed_from_u64(0x7_1ace_0003);
    for _ in 0..CASES {
        let archetypes = kernel_archetypes();
        let n = gen.gen_range(1usize..4);
        let kernels: Vec<KernelSpec> = (0..n)
            .map(|_| {
                archetypes[gen.gen_range(0usize..archetypes.len())]
                    .1
                    .clone()
            })
            .collect();
        let seed = gen.next_u64();
        let frac = gen.gen_range(0.1f64..0.9);
        let original: Vec<Instr> = TraceBuilder::new(seed)
            .memory_fraction(frac)
            .kernels(kernels)
            .build()
            .take(10_000)
            .collect();
        let replayed = container_round_trip("mix", seed, &original);
        assert_eq!(replayed, original, "seed {seed} frac {frac}");
    }
}

#[test]
fn chunk_stats_account_for_every_record_and_byte() {
    let original: Vec<Instr> = TraceBuilder::new(0x7_1ace_0004)
        .memory_fraction(0.5)
        .kernels(vec![KernelSpec::streaming(1 << 20)])
        .build()
        .take(5_000)
        .collect();
    let mut buf = Cursor::new(Vec::new());
    let mut writer = TraceWriter::new(&mut buf, TraceMeta::new("stats", 7))
        .expect("header writes")
        .chunk_records(1 << 10);
    writer
        .write_all(original.iter().copied())
        .expect("records write");
    let summary = writer.finish().expect("finish");

    let trace = BufferedTrace::from_bytes(buf.into_inner()).expect("trace indexes");
    assert_eq!(decode_all(&trace), original);

    let stats = trace.chunk_stats();
    assert_eq!(stats.len(), trace.chunk_count());
    assert_eq!(stats.len() as u64, summary.chunks);
    let records: u64 = stats.iter().map(|s| u64::from(s.records)).sum();
    assert_eq!(records, original.len() as u64);
    for stat in &stats {
        assert!(stat.records > 0 && stat.payload_bytes > 0);
        assert!(stat.bytes_per_record() > 0.0);
        // The delta codec beats the 16-byte fixed-width baseline on a
        // streaming kernel.
        assert!(stat.compression_ratio() < 1.0, "{stat:?}");
    }
}
