//! Property tests for the set-sharded replay kernel (`DESIGN.md` §13):
//! on fixed-seed random streams, a sharded replay of any set-local
//! policy is bit-identical to the serial one — the merged
//! [`ReplayResult`] *and* the probe's window sequence — at every shard
//! count, on the kernel's scoped threads and through the replay front door
//! (`sdbp::replay`). A set-dueling policy (DIP) pins the other side of
//! the contract: its registry entry is not `shardable`, so the door
//! clamps it to the serial kernel and its output never depends on the
//! requested shard count.

use sdbp_suite::cache::kernel::{replay_sharded, ShardPlan};
use sdbp_suite::cache::recorder::{InstrKind, InstrRecord, LlcAccess, RecordedWorkload};
use sdbp_suite::cache::replay::{replay_with_probe, Span, WindowMisses};
use sdbp_suite::cache::{Cache, CacheConfig};
use sdbp_suite::harness::runner::{cell, run_policy};
use sdbp_suite::sdbp::registry::{standard, PolicySpec, Registry};
use sdbp_suite::sdbp::replay::{ReplayMode, ReplayRequest};
use sdbp_suite::trace::rng::Rng64;
use sdbp_suite::trace::{AccessKind, BlockAddr, Pc};

const CASES: u64 = 16;
const SHARD_COUNTS: [usize; 3] = [1, 3, 7];
const SET_LOCAL_SPECS: [&str; 3] = ["lru", "plru", "srrip"];
const WINDOW: usize = 64;

/// A random LLC demand stream in the `property_based` idiom: blocks in
/// `0..2048` so sets see real reuse, one instruction per access.
fn random_llc_stream(rng: &mut Rng64, max_len: usize) -> Vec<LlcAccess> {
    (0..rng.gen_range(64usize..max_len))
        .map(|i| {
            let pc = rng.next_u64() as u8;
            let block = rng.gen_range(0u64..2048);
            let write = rng.gen_bool(0.5);
            LlcAccess {
                pc: Pc::new(0x400 + u64::from(pc) * 4),
                block: BlockAddr::new(block),
                kind: if write { AccessKind::Write } else { AccessKind::Read },
                core: 0,
                instr: i as u32,
            }
        })
        .collect()
}

fn build_cache(registry: &Registry, spec: &PolicySpec, llc: CacheConfig) -> Cache {
    let policy = registry.build(spec, llc, 1).expect("spec builds");
    Cache::with_policy(llc, policy)
}

/// Serial reference: full replay plus the per-window miss sequence.
fn serial_reference(
    registry: &Registry,
    spec: &PolicySpec,
    llc: CacheConfig,
    stream: &[LlcAccess],
) -> (sdbp_suite::cache::replay::ReplayResult, Vec<u64>) {
    let mut cache = build_cache(registry, spec, llc);
    let mut probe = WindowMisses::new(WINDOW);
    let result = replay_with_probe(stream, &mut cache, &mut probe);
    (result, probe.counts().to_vec())
}

/// Every set-local policy replays bit-identically — result and probe
/// window sequence — at shard counts {1, 3, 7}, with the shards on
/// threads joined in shard order, and the replay front door runs it on
/// exactly the requested shards.
#[test]
fn sharded_replay_is_bit_identical_for_set_local_policies() {
    let registry = standard();
    let llc = CacheConfig::new(64, 4);
    for name in SET_LOCAL_SPECS {
        let spec: PolicySpec = name.parse().expect("spec parses");
        let mut rng = Rng64::seed_from_u64(0x5da7_d001);
        for case in 0..CASES {
            let stream = random_llc_stream(&mut rng, 2500);
            let (serial, serial_windows) = serial_reference(&registry, &spec, llc, &stream);
            for shards in SHARD_COUNTS {
                let plan = ShardPlan::new(llc.sets, shards);
                let fresh = || build_cache(&registry, &spec, llc);
                let mut probe = WindowMisses::new(WINDOW);
                let whole = [Span::whole(stream.len())];
                let result = replay_sharded(&stream, &whole, &plan, &fresh, Some(&mut probe))
                    .expect("geometry is valid");
                assert_eq!(
                    result, serial,
                    "{name} case {case}: {shards}-shard replay diverged from serial"
                );
                assert_eq!(
                    probe.counts(),
                    serial_windows.as_slice(),
                    "{name} case {case}: {shards}-shard probe window sequence diverged"
                );
                let mut door_probe = WindowMisses::new(WINDOW);
                let outcome = ReplayRequest {
                    stream: &stream,
                    llc,
                    policy: &spec,
                    mode: ReplayMode::Exact { probe: Some(&mut door_probe) },
                    shards,
                    cores: 1,
                }
                .run()
                .expect("spec and geometry are valid");
                assert_eq!(outcome.shards, shards, "{name} lost its shardable capability flag");
                assert_eq!(
                    (&outcome.stats, &outcome.hits),
                    (&serial.stats, &serial.hits),
                    "{name} case {case}: {shards}-shard door replay diverged from serial"
                );
                assert_eq!(door_probe.counts(), serial_windows.as_slice());
            }
        }
    }
}

/// DIP duels two leader-set cohorts through one global PSEL counter, so
/// its decisions are *not* set-local: the replay front door must clamp
/// it to the serial kernel, and the experiment runner's rows
/// (`run_policy`) must be independent of the requested shard count.
#[test]
fn set_dueling_policy_is_clamped_to_the_serial_path() {
    let llc = CacheConfig::new(64, 4);
    let mut rng = Rng64::seed_from_u64(0x5da7_d003);
    let stream = random_llc_stream(&mut rng, 4000);
    let dip = cell("dip");
    for shards in [3usize, 7] {
        let outcome = ReplayRequest {
            stream: &stream,
            llc,
            policy: &dip.1,
            mode: ReplayMode::Exact { probe: None },
            shards,
            cores: 1,
        }
        .run()
        .expect("dip builds");
        assert_eq!(
            outcome.shards, 1,
            "dip must stay non-shardable: its PSEL counter spans all sets"
        );
    }

    let workload = RecordedWorkload {
        name: "shard-prop".to_owned(),
        records: stream
            .iter()
            .map(|_| InstrRecord::new(InstrKind::Llc, false))
            .collect(),
        llc: stream,
    };
    let serial = run_policy(&workload, &dip, llc, 1, None).expect("dip replays");
    for shards in [3usize, 7] {
        let sharded = run_policy(&workload, &dip, llc, shards, None).expect("dip replays");
        assert_eq!(
            sharded.stats, serial.stats,
            "dip at {shards} requested shards must take the serial fallback"
        );
        assert_eq!(sharded.ipc.to_bits(), serial.ipc.to_bits());
    }
}
