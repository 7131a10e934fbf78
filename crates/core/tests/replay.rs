//! The replay front door (`sdbp::replay`), table-driven: every
//! `standard()` policy × {exact with a window probe, sampled} must equal
//! the primitive (`replay` / `replay_sampled`) bit for bit, a probe that
//! reads whole outcomes must see what it sees on a direct replay, and bad
//! specs must come back as typed errors. A quad-core merged stream must
//! replay under a policy built for its core count.

use sdbp::registry::{standard, PolicySpec, SpecError};
use sdbp::replay::{ReplayError, ReplayMode, ReplayOutcome, ReplayRequest};
use sdbp_cache::efficiency::EfficiencyTracker;
use sdbp_cache::recorder::{
    merge_llc_streams, record, record_for_core, LlcAccess, RecordedWorkload,
};
use sdbp_cache::replay::{replay, replay_with_probe, WindowStream};
use sdbp_cache::{Cache, CacheConfig};
use sdbp_sample::{build_plan, replay_sampled, segment_schedule, PlanConfig, SamplingPlan};
use sdbp_trace::kernel::KernelSpec;
use sdbp_trace::rng::Rng64;
use sdbp_trace::{AccessKind, BlockAddr, Pc, TraceBuilder};

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
        cores: 1,
    }
    .run()
    .unwrap_or_else(|e| panic!("{spec} {mode:?}: {e}"));
    probe.finish();
    (outcome, matches!(mode, Mode::Exact).then_some(windows))
}

#[test]
fn door_matches_the_serial_primitives_for_every_policy_and_mode() {
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
        for mode in [Mode::Exact, Mode::Sampled] {
            let case = format!("{} {mode:?}", entry.name);
            let (outcome, windows) = run(&w.llc, llc, &spec, mode, &plan);
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

/// A probe that reads each outcome's frame (here live/dead accounting)
/// sees through the front door exactly what it sees on a direct
/// `replay_with_probe`: every frame's live and total time agree.
#[test]
fn outcome_probe_sees_the_frames_of_a_direct_replay() {
    // Random blocks in 0..2048 over a 256-line cache: every set sees
    // hits, fills and evictions, so frames have live and dead time.
    let mut rng = Rng64::seed_from_u64(0x5da7_d004);
    let stream: Vec<LlcAccess> = (0..4000u32)
        .map(|instr| LlcAccess {
            pc: Pc::new(0x400 + rng.gen_range(0u64..256) * 4),
            block: BlockAddr::new(rng.gen_range(0u64..2048)),
            kind: if rng.gen_bool(0.5) {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
            core: 0,
            instr,
        })
        .collect();
    let llc = CacheConfig::new(64, 4);
    let spec = PolicySpec::plain("lru");
    let mut door_tracker = EfficiencyTracker::new(llc);
    let door = ReplayRequest {
        stream: &stream,
        llc,
        policy: &spec,
        mode: ReplayMode::Exact {
            probe: Some(&mut door_tracker),
        },
        cores: 1,
    }
    .run()
    .expect("lru builds");
    door_tracker.finish();
    let mut direct_tracker = EfficiencyTracker::new(llc);
    let direct = replay_with_probe(&stream, &mut cache(&spec, llc), &mut direct_tracker);
    direct_tracker.finish();
    assert_eq!((&door.stats, &door.hits), (&direct.stats, &direct.hits));
    assert!(direct_tracker.overall() > 0.0, "the probe saw live time");
    for set in 0..llc.sets {
        for way in 0..llc.ways {
            assert_eq!(
                door_tracker.times(set, way),
                direct_tracker.times(set, way),
                "frame ({set}, {way})"
            );
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
        for mode in [
            ReplayMode::Exact { probe: None },
            ReplayMode::Sampled(&plan),
        ] {
            let err = ReplayRequest {
                stream: &w.llc,
                llc,
                policy: &spec,
                mode,
                cores: 1,
            }
            .run()
            .expect_err("bad spec must not replay");
            assert!(
                matches!(&err, ReplayError::Spec(e) if *e == expected),
                "{text}: {err:?}"
            );
            assert_eq!(err.to_string(), expected.to_string());
        }
    }
}

#[test]
fn a_plan_for_another_stream_is_a_typed_error() {
    let w = workload();
    let llc = CacheConfig::new(64, 8);
    let plan = build_plan(&w, llc, &PlanConfig::default().with_window(2048).with_k(4));
    let spec = PolicySpec::plain("lru");
    let err = ReplayRequest {
        stream: &w.llc[..w.llc.len() / 2],
        llc,
        policy: &spec,
        mode: ReplayMode::Sampled(&plan),
        cores: 1,
    }
    .run()
    .expect_err("truncated stream must not match the plan");
    assert!(matches!(err, ReplayError::Sample(_)), "{err:?}");
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

fn exact(stream: &[LlcAccess], llc: CacheConfig, spec: &PolicySpec, cores: usize) -> ReplayOutcome {
    ReplayRequest {
        stream,
        llc,
        policy: spec,
        mode: ReplayMode::Exact { probe: None },
        cores,
    }
    .run()
    .unwrap_or_else(|e| panic!("{spec} on {cores} cores: {e}"))
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
        let four = exact(&merged, llc, &spec, 4);
        assert_eq!(four.stats, by_hand.stats, "{name}");
        assert_eq!(four.hits, by_hand.hits, "{name}");
        let one = exact(&merged, llc, &spec, 1);
        assert_ne!(
            one.hits, four.hits,
            "{name}: the core count changed nothing"
        );
    }
}
