//! `shard-smoke` — the scaling and byte-identity record of the
//! set-sharded replay kernel (`DESIGN.md` §13).
//!
//! Builds one fixed-seed 10M-access LLC stream, replays it serially
//! once, then sweeps shard counts {2, 4, 8} through
//! [`sdbp_cache::kernel::replay_sharded`], asserting every result —
//! counters *and* per-access hit bits — equals the serial one bit for
//! bit. Per-phase timings (stream build, serial replay, each sharded
//! replay) go to `BENCH_shard.json`; CI gates on `identical_output`.
//!
//! Speedup is reported against the measured serial replay together with
//! `available_parallelism`, because shards can only buy wall-clock time
//! when the host has cores to spread them over — a 1-CPU runner will
//! honestly report ~1x (or less) at every shard count.
//!
//! ```text
//! shard-smoke
//! shard-smoke --output target/BENCH_shard.json
//! SDBP_SHARD_BENCH_ACCESSES=1000000 shard-smoke   # CI sizing
//! ```

use sdbp_cache::kernel::{replay_sharded, ShardPlan, ThreadRunner};
use sdbp_cache::recorder::LlcAccess;
use sdbp_cache::replay::{replay, ReplayResult};
use sdbp_cache::{Cache, CacheConfig};
use sdbp_trace::rng::Rng64;
use sdbp_trace::{AccessKind, BlockAddr, Pc};
use std::fmt::Write as _;
use std::time::Instant;

/// Stream length; `SDBP_SHARD_BENCH_ACCESSES` overrides.
const ACCESSES: u64 = 10_000_000;

/// Shard counts swept after the serial baseline.
const SHARD_SWEEP: &[usize] = &[2, 4, 8];

/// A fixed-seed LLC stream: a hot set with a streaming background.
fn synthetic_stream(accesses: u64) -> Vec<LlcAccess> {
    let mut rng = Rng64::seed_from_u64(0x5da7d);
    let mut stream = Vec::with_capacity(accesses as usize);
    for i in 0..accesses {
        let block = if rng.gen_range(0u64..10) < 6 {
            rng.gen_range(0u64..4096) // hot set, ~16 MB at 64 B lines
        } else {
            0x10_0000 + rng.gen_range(0u64..(1 << 22)) // streaming background
        };
        let pc = 0x400_000 + rng.gen_range(0u64..512) * 4;
        let kind =
            if rng.gen_range(0u64..4) == 0 { AccessKind::Write } else { AccessKind::Read };
        stream.push(LlcAccess {
            pc: Pc::new(pc),
            block: BlockAddr::new(block),
            kind,
            core: 0,
            instr: i as u32,
        });
    }
    stream
}

struct SweepPoint {
    shards: usize,
    elapsed_s: f64,
    identical: bool,
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut output = String::from("BENCH_shard.json");
    let i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--output" => {
                output = args.get(i + 1).cloned().unwrap_or_else(|| {
                    eprintln!("--output needs a file path");
                    std::process::exit(2);
                });
                args.drain(i..=i + 1);
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let accesses = std::env::var("SDBP_SHARD_BENCH_ACCESSES")
        .ok()
        .and_then(|s| s.replace('_', "").parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(ACCESSES);
    let llc = CacheConfig::llc_2mb();
    let cores = std::thread::available_parallelism().map(usize::from).unwrap_or(1);

    // Phase 1: build the stream (the "record" side of the bench).
    let started = Instant::now();
    let stream = synthetic_stream(accesses);
    let record_s = started.elapsed().as_secs_f64();

    // Phase 2: serial replay — the bit-exact reference and the speedup
    // denominator.
    let started = Instant::now();
    let baseline: ReplayResult = replay(&stream, &mut Cache::new(llc));
    let serial_s = started.elapsed().as_secs_f64();

    // Phase 3: the shard sweep. Every point must reproduce `baseline`
    // exactly — counters and per-access hit bits.
    let fresh = move || Cache::new(llc);
    let mut points = Vec::new();
    for &shards in SHARD_SWEEP {
        let plan = ShardPlan::new(llc.sets, shards);
        let started = Instant::now();
        let result = replay_sharded(&stream, &plan, &fresh, &ThreadRunner, None)
            .unwrap_or_else(|e| panic!("{shards} shards: {e}"));
        let elapsed_s = started.elapsed().as_secs_f64();
        points.push(SweepPoint { shards, elapsed_s, identical: result == baseline });
    }
    let identical = points.iter().all(|p| p.identical);

    let per = |s: f64| if s > 0.0 { accesses as f64 / s } else { 0.0 };
    let speedup = |s: f64| if s > 0.0 { serial_s / s } else { 1.0 };
    let mut sweep_json = String::new();
    for (i, p) in points.iter().enumerate() {
        // sdbp-allow(result-discipline): fmt::Write into a String is infallible
        let _ = write!(
            sweep_json,
            "    {{\n      \"shards\": {},\n      \"elapsed_s\": {:.6},\n      \
             \"accesses_per_sec\": {:.1},\n      \"speedup_vs_serial\": {:.3},\n      \
             \"identical_output\": {}\n    }}{}\n",
            p.shards,
            p.elapsed_s,
            per(p.elapsed_s),
            speedup(p.elapsed_s),
            p.identical,
            if i + 1 < points.len() { "," } else { "" },
        );
    }
    let json = format!(
        "{{\n  \"schema\": \"sdbp-bench/v1\",\n  \"name\": \"shard\",\n  \
         \"accesses\": {accesses},\n  \"policy\": \"lru\",\n  \"llc\": \"2MB 2048x16\",\n  \
         \"available_parallelism\": {cores},\n  \
         \"record\": {{\n    \"elapsed_s\": {record_s:.6},\n    \
         \"accesses_per_sec\": {:.1}\n  }},\n  \
         \"serial\": {{\n    \"elapsed_s\": {serial_s:.6},\n    \
         \"accesses_per_sec\": {:.1}\n  }},\n  \
         \"sweep\": [\n{sweep_json}  ],\n  \
         \"identical_output\": {identical}\n}}\n",
        per(record_s),
        per(serial_s),
    );
    if let Some(parent) = std::path::Path::new(&output).parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("cannot create {}: {e}", parent.display());
                std::process::exit(1);
            }
        }
    }
    if let Err(e) = std::fs::write(&output, &json) {
        eprintln!("cannot write {output}: {e}");
        std::process::exit(1);
    }

    println!(
        "shard smoke: {accesses} accesses on {cores} core(s); record {record_s:.2}s, \
         serial {serial_s:.2}s ({:.0} acc/s)",
        per(serial_s),
    );
    for p in &points {
        println!(
            "  {} shards: {:.2}s ({:.0} acc/s, {:.2}x), identical: {}",
            p.shards,
            p.elapsed_s,
            per(p.elapsed_s),
            speedup(p.elapsed_s),
            p.identical
        );
    }
    println!("wrote {output}");
    if !identical {
        eprintln!("error: a sharded replay diverged from the serial baseline");
        std::process::exit(1);
    }
}
