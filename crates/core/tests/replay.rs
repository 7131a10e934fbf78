//! The replay front door (`sdbp::replay`), table-driven: every
//! `standard()` policy × {exact, sampled} × shards {1, 3, 7} must equal the
//! serial primitive (`replay` / `replay_sampled`) bit for bit, report one
//! effective shard exactly when the policy is not set-local, and bad
//! specs must come back as typed errors. A quad-core merged stream must
//! replay under a policy built for its core count.

use sdbp::registry::{standard, PolicySpec, SpecError};
use sdbp::replay::{ReplayError, ReplayMode, ReplayOutcome, ReplayRequest};
use sdbp_cache::recorder::{
    merge_llc_streams, record, record_for_core, LlcAccess, RecordedWorkload,
};
use sdbp_cache::replay::{replay, WindowStream};
use sdbp_cache::{Cache, CacheConfig};
use sdbp_sample::{build_plan, replay_sampled, segment_schedule, PlanConfig, SamplingPlan};
use sdbp_trace::kernel::KernelSpec;
use sdbp_trace::TraceBuilder;

/// Policies whose state is partitioned by set, written out here rather
/// than read from the registry so the door's fallback rule is checked
/// against an independent list.
const SET_LOCAL: [&str; 3] = ["lru", "plru", "srrip"];

const WINDOW: usize = 500;

fn workload() -> RecordedWorkload {
    let t = TraceBuilder::new(21)
        .kernel(KernelSpec::streaming(1 << 22))
        .kernel(KernelSpec::hot_set(1 << 18))
        .build();
    record("door", t, 120_000)
}

fn cache(spec: &PolicySpec, llc: CacheConfig) -> Cache {
    Cache::with_policy(
        llc,
        standard()
            .build(spec, llc, 1)
            .expect("registry spec builds"),
    )
}

#[derive(Clone, Copy, Debug)]
enum Mode {
    Exact,
    Sampled,
}

fn run(
    stream: &[LlcAccess],
    llc: CacheConfig,
    spec: &PolicySpec,
    mode: Mode,
    plan: &SamplingPlan,
    shards: usize,
) -> (ReplayOutcome, Option<Vec<u64>>) {
    let mut windows = Vec::new();
    let mut probe = WindowStream::new(WINDOW, |_, misses| windows.push(misses));
    let mode_arg = match mode {
        Mode::Exact => ReplayMode::Exact {
            probe: Some(&mut probe),
        },
        Mode::Sampled => ReplayMode::Sampled(plan),
    };
    let outcome = ReplayRequest {
        stream,
        llc,
        policy: spec,
        mode: mode_arg,
        shards,
        cores: 1,
    }
    .run()
    .unwrap_or_else(|e| panic!("{spec} {mode:?} x{shards}: {e}"));
    probe.finish();
    (outcome, matches!(mode, Mode::Exact).then_some(windows))
}

#[test]
fn door_matches_the_serial_primitives_for_every_policy_mode_and_shard_count() {
    let w = workload();
    let llc = CacheConfig::new(64, 8);
    // Two warm-up windows, so that adjacent segments chain: the sampled
    // cases must cover gaps and chained warm-ups — the plan skips
    // windows, and some segment's warm-up is clipped by the end of the
    // segment before it.
    let config = PlanConfig {
        warmup_windows: 2,
        ..PlanConfig::default().with_window(2048).with_k(4)
    };
    let plan = build_plan(&w, llc, &config);
    let schedule = segment_schedule(w.llc.len(), &plan).expect("plan fits its own stream");
    assert!(
        schedule.replayed() < w.llc.len() as u64,
        "the plan skips no window"
    );
    let full_warmup = plan.warmup_windows as usize * plan.window as usize;
    assert!(
        schedule.spans().windows(2).any(|pair| {
            pair[1].warmup_start == pair[0].measure_end
                && pair[1].measure_start - pair[1].warmup_start < full_warmup
        }),
        "no warm-up is clipped by the previous segment: {:?}",
        schedule.spans()
    );
    let registry = standard();
    assert_eq!(registry.entries().len(), 15);
    for entry in registry.entries() {
        let spec = PolicySpec::plain(entry.name);
        let set_local = SET_LOCAL.contains(&entry.name);
        for mode in [Mode::Exact, Mode::Sampled] {
            for shards in [1usize, 3, 7] {
                let case = format!("{} {mode:?} x{shards}", entry.name);
                let (outcome, windows) = run(&w.llc, llc, &spec, mode, &plan, shards);
                assert_eq!(
                    outcome.shards == 1,
                    shards == 1 || !set_local,
                    "{case}: effective shard count {}",
                    outcome.shards
                );
                match mode {
                    Mode::Exact => {
                        let serial = replay(&w.llc, &mut cache(&spec, llc));
                        assert_eq!(outcome.stats, serial.stats, "{case}");
                        assert_eq!(outcome.hits, serial.hits, "{case}");
                        assert_eq!(outcome.sampled, None, "{case}");
                        // The probe saw every outcome, in stream order.
                        let bits: Vec<bool> = serial.hits.iter().collect();
                        let expected: Vec<u64> = bits
                            .chunks(WINDOW)
                            .map(|c| c.iter().filter(|&&hit| !hit).count() as u64)
                            .collect();
                        assert_eq!(windows, Some(expected), "{case}");
                    }
                    Mode::Sampled => {
                        let serial = replay_sampled(&w.llc, &plan, || cache(&spec, llc))
                            .expect("plan fits its own stream");
                        assert_eq!(outcome.stats.misses, serial.estimated, "{case}");
                        assert_eq!(outcome.stats.accesses, serial.total, "{case}");
                        assert_eq!(outcome.hits, serial.hits, "{case}");
                        let extras = outcome.sampled.expect("sampled outcome carries extras");
                        assert_eq!(extras.bound.to_bits(), serial.bound.to_bits(), "{case}");
                        assert_eq!(extras.replayed, serial.replayed, "{case}");
                        assert_eq!(extras.total, serial.total, "{case}");
                    }
                }
            }
        }
    }
}

#[test]
fn unknown_and_malformed_specs_are_typed_errors() {
    let w = workload();
    let llc = CacheConfig::new(64, 8);
    let plan = build_plan(&w, llc, &PlanConfig::default().with_window(2048).with_k(4));
    let cases = [
        ("belady", SpecError::UnknownPolicy("belady".into())),
        ("lru:x=1", SpecError::UnexpectedParams("lru".into())),
        (
            "sampler:assoc=many",
            SpecError::InvalidValue {
                key: "assoc".into(),
                value: "many".into(),
            },
        ),
    ];
    for (text, expected) in cases {
        let spec: PolicySpec = text.parse().expect("well-formed spec text");
        for shards in [1usize, 3] {
            for mode in [
                ReplayMode::Exact { probe: None },
                ReplayMode::Sampled(&plan),
            ] {
                let err = ReplayRequest {
                    stream: &w.llc,
                    llc,
                    policy: &spec,
                    mode,
                    shards,
                    cores: 1,
                }
                .run()
                .expect_err("bad spec must not replay");
                assert!(
                    matches!(&err, ReplayError::Spec(e) if *e == expected),
                    "{text} x{shards}: {err:?}"
                );
                assert_eq!(err.to_string(), expected.to_string());
            }
        }
    }
}

#[test]
fn a_plan_for_another_stream_is_a_typed_error() {
    let w = workload();
    let llc = CacheConfig::new(64, 8);
    let plan = build_plan(&w, llc, &PlanConfig::default().with_window(2048).with_k(4));
    let spec = PolicySpec::plain("lru");
    for shards in [1usize, 3] {
        let err = ReplayRequest {
            stream: &w.llc[..w.llc.len() / 2],
            llc,
            policy: &spec,
            mode: ReplayMode::Sampled(&plan),
            shards,
            cores: 1,
        }
        .run()
        .expect_err("truncated stream must not match the plan");
        assert!(matches!(err, ReplayError::Sample(_)), "x{shards}: {err:?}");
    }
}

/// Four fixed-seed single-core recordings, one per core, merged into the
/// shared-LLC order: two streaming cores that thrash and two hot-set cores
/// that reuse, so per-core duels pick different insertion policies.
fn quad_core_stream() -> Vec<LlcAccess> {
    let members: Vec<RecordedWorkload> = (0u8..4)
        .map(|core| {
            let kernel = match core % 2 {
                0 => KernelSpec::streaming(1 << 24),
                _ => KernelSpec::hot_set(1 << 19),
            };
            let trace = TraceBuilder::new(40 + u64::from(core))
                .kernel(kernel)
                .build();
            record_for_core("quad", trace, 60_000, core)
        })
        .collect();
    let streams: Vec<&[LlcAccess]> = members.iter().map(|w| w.llc.as_slice()).collect();
    merge_llc_streams(&streams)
}

fn exact(
    stream: &[LlcAccess],
    llc: CacheConfig,
    spec: &PolicySpec,
    shards: usize,
    cores: usize,
) -> ReplayOutcome {
    ReplayRequest {
        stream,
        llc,
        policy: spec,
        mode: ReplayMode::Exact { probe: None },
        shards,
        cores,
    }
    .run()
    .unwrap_or_else(|e| panic!("{spec} x{shards} on {cores} cores: {e}"))
}

#[test]
fn door_builds_the_policy_for_the_requested_core_count() {
    let merged = quad_core_stream();
    assert!(
        merged.iter().any(|a| a.core == 3),
        "every core is in the stream"
    );
    let llc = CacheConfig::new(1024, 16);
    for name in ["tadip", "rrip"] {
        let spec = PolicySpec::plain(name);
        let policy = standard()
            .build(&spec, llc, 4)
            .expect("registry spec builds");
        let by_hand = replay(&merged, &mut Cache::with_policy(llc, policy));
        let four = exact(&merged, llc, &spec, 1, 4);
        assert_eq!(four.stats, by_hand.stats, "{name}");
        assert_eq!(four.hits, by_hand.hits, "{name}");
        let one = exact(&merged, llc, &spec, 1, 1);
        assert_ne!(
            one.hits, four.hits,
            "{name}: the core count changed nothing"
        );
    }
    for name in ["lru", "srrip"] {
        let spec = PolicySpec::plain(name);
        let serial = exact(&merged, llc, &spec, 1, 4);
        for shards in [3usize, 7] {
            let sharded = exact(&merged, llc, &spec, shards, 4);
            assert_eq!(sharded.shards, shards, "{name} x{shards}");
            assert_eq!(sharded.stats, serial.stats, "{name} x{shards}");
            assert_eq!(sharded.hits, serial.hits, "{name} x{shards}");
        }
    }
}
