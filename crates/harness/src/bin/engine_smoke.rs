//! `engine-smoke` — the first machine-readable perf record of the repo.
//!
//! Runs one small experiment matrix twice — once on a serial engine, once
//! on a parallel one — checks that the rendered results are byte-identical
//! (the engine's deterministic-aggregation guarantee), and writes the
//! serial-vs-parallel throughput comparison to `BENCH_engine_smoke.json`.
//!
//! It then benchmarks the trace I/O subsystem: streams a 10M-access
//! synthetic workload through `TraceWriter` into a `.sdbt` file and back
//! through `TraceReader` (O(chunk) memory both ways, verified bit-exact
//! by rolling checksum), writing encode/decode throughput to
//! `BENCH_traceio.json`.
//!
//! ```text
//! engine-smoke                         # auto worker count, default output
//! engine-smoke --jobs 4
//! engine-smoke --output target/BENCH_engine_smoke.json
//! engine-smoke --traceio-output target/BENCH_traceio.json
//! SDBP_TRACEIO_ACCESSES=1000000 engine-smoke   # smaller trace bench
//! ```

#![expect(
    clippy::disallowed_methods,
    reason = "benchmark binary: serial-vs-parallel and trace I/O wall-clock throughput is its output"
)]

use sdbp_engine::{Engine, Parallelism};
use sdbp_harness::runner::{run_matrix, PolicyKind, RecordStore, SingleResult};
use sdbp_harness::table::result_line;
use sdbp_trace::Instr;
use sdbp_traceio::{convert_path, format::fnv1a_step, BufferedTrace, TraceMeta, TraceReader, TraceWriter};
use sdbp_workloads::{benchmark, subset};
use std::time::Instant;

/// Instruction budget per benchmark: small enough for a CI smoke run.
const SMOKE_INSTRUCTIONS: u64 = 400_000;

/// Accesses streamed through the trace I/O round trip — large enough
/// that unbounded buffering would be obvious; `SDBP_TRACEIO_ACCESSES`
/// overrides (CI uses a smaller figure to stay quick).
const TRACEIO_ACCESSES: u64 = 10_000_000;

/// Renders a result matrix to a canonical string, byte-comparable across
/// engine configurations.
fn render(matrix: &[Vec<SingleResult>]) -> String {
    let mut out = String::new();
    for row in matrix {
        for r in row {
            out.push_str(&result_line(&r.benchmark, r.policy, r.misses, r.mpki, r.ipc));
            out.push('\n');
        }
    }
    out
}

/// Timings of one measured run, split by engine batch so the record
/// phase (trace synthesis) and the replay phase (the policy matrix) are
/// reported honestly rather than folded into one number.
struct Measured {
    rendered: String,
    record_s: f64,
    replay_s: f64,
    total_s: f64,
    accesses: u64,
}

/// One measured run: fresh store, fresh engine, same workload matrix.
fn measure(engine: &Engine) -> Measured {
    let store = RecordStore::new();
    let benchmarks: Vec<_> = subset().into_iter().take(8).collect();
    let policies = vec![PolicyKind::Lru, PolicyKind::Cdbp, PolicyKind::Sampler];
    let matrix = run_matrix(engine, &store, &benchmarks, &policies, sdbp_cache::CacheConfig::llc_2mb());
    let t = engine.telemetry();
    let phase = |label: &str| {
        t.batches
            .iter()
            .filter(|b| b.label == label)
            .map(|b| b.elapsed.as_secs_f64())
            .sum::<f64>()
    };
    Measured {
        rendered: render(&matrix),
        record_s: phase("record"),
        replay_s: phase("matrix"),
        total_s: t.elapsed().as_secs_f64(),
        accesses: t.accesses(),
    }
}

/// Folds the fields of one instruction into a rolling FNV-1a hash, so a
/// 10M-access stream can be compared across the round trip in O(1) space.
fn fold_instr(hash: u64, i: &Instr) -> u64 {
    let mut h = fnv1a_step(hash, &i.pc.raw().to_le_bytes());
    match i.mem {
        Some(m) => {
            h = fnv1a_step(h, &m.addr.raw().to_le_bytes());
            h = fnv1a_step(h, &[m.kind as u8, u8::from(m.dependent)]);
        }
        None => h = fnv1a_step(h, &[0xff]),
    }
    h
}

/// One codec's encode + stream parameters, rendered into the JSON below.
struct CodecFigures {
    bytes: u64,
    bytes_per_access: f64,
    encode_s: f64,
    decode_s: f64,
}

/// Writes `accesses` synthetic instructions through one codec version and
/// returns (figures, file path kept for later stages, encode hash).
fn encode_version(
    accesses: u64,
    version: u32,
    tag: &str,
) -> (CodecFigures, std::path::PathBuf, u64) {
    let bench = benchmark("456.hmmer").expect("known benchmark");
    let path = std::env::temp_dir()
        .join(format!("sdbp-traceio-bench-{}-{tag}.sdbt", std::process::id()));
    let encode_started = Instant::now();
    let meta = TraceMeta::new(bench.name, bench.stream_seed(0)).with_version(version);
    let mut writer = TraceWriter::create(&path, meta).expect("create bench trace");
    let mut encode_hash = 0xcbf2_9ce4_8422_2325u64;
    for instr in bench.trace_seeded(0).take(accesses as usize) {
        encode_hash = fold_instr(encode_hash, &instr);
        writer.write(&instr).expect("write bench trace");
    }
    let summary = writer.finish().expect("finish bench trace");
    let figures = CodecFigures {
        bytes: summary.bytes,
        bytes_per_access: summary.bytes_per_access(),
        encode_s: encode_started.elapsed().as_secs_f64(),
        decode_s: 0.0,
    };
    (figures, path, encode_hash)
}

/// Benchmarks both `.sdbt` codecs over the same `accesses`-long stream:
/// v1 varint encode/decode, v2 columnar encode + batch decode, and the
/// v1 -> v2 conversion, asserting every decoded stream bit-exact against
/// the encoded one (this binary is CI's byte-identity gate). Returns the
/// `BENCH_traceio.json` record.
///
/// The decode figures are **memory-resident and symmetric**: each
/// codec's file is read into memory untimed (reported as `load`), then
/// the timed loop does pure decode — no hashing, no I/O — so the
/// comparison isolates codec cost. Bit-exactness is asserted by separate
/// untimed verification passes.
fn traceio_bench(accesses: u64) -> String {
    // --- v1: encode, then validating streaming decode from memory. ---
    let (mut v1, v1_path, encode_hash) = encode_version(accesses, sdbp_traceio::FORMAT_V1, "v1");
    let load_started = Instant::now();
    let v1_bytes = std::fs::read(&v1_path).expect("read back v1 bench trace");
    let v1_load_s = load_started.elapsed().as_secs_f64();
    let decode_started = Instant::now();
    let reader =
        TraceReader::new(std::io::Cursor::new(v1_bytes.as_slice())).expect("reopen v1 trace");
    let mut decoded = 0u64;
    for item in reader {
        std::hint::black_box(&item.expect("clean decode"));
        decoded += 1;
    }
    v1.decode_s = decode_started.elapsed().as_secs_f64();
    assert_eq!(decoded, accesses, "v1 decode lost records");
    // Untimed verification pass: v1 round trip must be bit-exact.
    let reader =
        TraceReader::new(std::io::Cursor::new(v1_bytes.as_slice())).expect("reopen v1 trace");
    let mut decode_hash = 0xcbf2_9ce4_8422_2325u64;
    for item in reader {
        decode_hash = fold_instr(decode_hash, &item.expect("clean decode"));
    }
    drop(v1_bytes);
    assert_eq!(decode_hash, encode_hash, "v1 round trip is not bit-exact");

    // --- v2: direct columnar encode. ---
    let (mut v2, v2_path, v2_hash) = encode_version(accesses, sdbp_traceio::FORMAT_V2, "v2");
    assert_eq!(v2_hash, encode_hash, "the two codecs saw different streams");

    // --- v1 -> v2 conversion (the archival-to-replay promotion). ---
    let conv_path = std::env::temp_dir()
        .join(format!("sdbp-traceio-bench-{}-conv.sdbt", std::process::id()));
    let convert_started = Instant::now();
    let conv = convert_path(&v1_path, &conv_path, sdbp_traceio::FORMAT_V2)
        .expect("convert v1 trace to v2");
    let convert_s = convert_started.elapsed().as_secs_f64();
    assert_eq!(conv.write.instructions, accesses, "conversion lost records");
    assert_eq!(
        conv.write.bytes, v2.bytes,
        "converted v2 file differs in size from a direct v2 encode"
    );

    // --- v2 batch decode from memory: validating index (checksums
    // verified up front), then whole-chunk batch materialization. Both
    // phases are decode work and sum to the reported `decode`. ---
    let load_started = Instant::now();
    let v2_bytes = std::fs::read(&conv_path).expect("read back converted v2 trace");
    let v2_load_s = load_started.elapsed().as_secs_f64();
    let index_started = Instant::now();
    let buffered = BufferedTrace::from_slice(&v2_bytes).expect("index converted v2 trace");
    let index_s = index_started.elapsed().as_secs_f64();
    let batch_started = Instant::now();
    let mut batches = buffered.batches();
    let mut batch_decoded = 0u64;
    while let Some(batch) = batches.try_next().expect("clean batch decode") {
        batch_decoded += batch.len() as u64;
        std::hint::black_box(batch.pcs().as_ptr());
        std::hint::black_box(batch.addrs().as_ptr());
        std::hint::black_box(batch.flags().as_ptr());
    }
    let batch_s = batch_started.elapsed().as_secs_f64();
    v2.decode_s = index_s + batch_s;
    assert_eq!(batch_decoded, accesses, "v2 batch decode lost records");

    // Untimed verification pass: the v1 -> v2 -> batch-decode pipeline
    // must reproduce the original stream bit-for-bit.
    let mut verify = buffered.batches();
    let mut v2_decode_hash = 0xcbf2_9ce4_8422_2325u64;
    while let Some(batch) = verify.try_next().expect("clean verify decode") {
        for instr in batch.iter() {
            v2_decode_hash = fold_instr(v2_decode_hash, &instr);
        }
    }
    assert_eq!(v2_decode_hash, encode_hash, "v1->v2->decode is not bit-exact");

    for p in [&v1_path, &v2_path, &conv_path] {
        #[expect(
            clippy::unused_result_ok,
            reason = "best-effort tmpfile cleanup; a leak is harmless"
        )]
        std::fs::remove_file(p).ok();
    }

    let per = |s: f64| if s > 0.0 { accesses as f64 / s } else { 0.0 };
    let stage = |s: f64| {
        format!("{{ \"elapsed_s\": {:.6}, \"accesses_per_sec\": {:.1} }}", s, per(s))
    };
    let speedup = if v2.decode_s > 0.0 { v1.decode_s / v2.decode_s } else { 0.0 };
    format!(
        "{{\n  \"schema\": \"sdbp-bench/v2\",\n  \"name\": \"traceio\",\n  \
         \"accesses\": {accesses},\n  \
         \"v1\": {{\n    \"bytes\": {},\n    \"bytes_per_access\": {:.4},\n    \
         \"encode\": {},\n    \"load\": {},\n    \"decode\": {}\n  }},\n  \
         \"v2\": {{\n    \"bytes\": {},\n    \"bytes_per_access\": {:.4},\n    \
         \"encode\": {},\n    \"load\": {},\n    \"decode\": {},\n    \
         \"decode_index\": {},\n    \"decode_batch\": {},\n    \
         \"convert_from_v1\": {}\n  }},\n  \
         \"v2_decode_speedup\": {:.3},\n  \"bit_exact\": true\n}}\n",
        v1.bytes,
        v1.bytes_per_access,
        stage(v1.encode_s),
        stage(v1_load_s),
        stage(v1.decode_s),
        v2.bytes,
        v2.bytes_per_access,
        stage(v2.encode_s),
        stage(v2_load_s),
        stage(v2.decode_s),
        stage(index_s),
        stage(batch_s),
        stage(convert_s),
        speedup,
    )
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut output = String::from("BENCH_engine_smoke.json");
    let mut traceio_output = String::from("BENCH_traceio.json");
    let mut workers: Option<usize> = None;
    // Every arm either drains the matched args or exits, so the cursor
    // stays at 0.
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
            "--traceio-output" => {
                traceio_output = args.get(i + 1).cloned().unwrap_or_else(|| {
                    eprintln!("--traceio-output needs a file path");
                    std::process::exit(2);
                });
                args.drain(i..=i + 1);
            }
            "--jobs" => {
                workers = args.get(i + 1).and_then(|v| v.parse().ok());
                if workers.is_none() {
                    eprintln!("--jobs needs a positive integer");
                    std::process::exit(2);
                }
                args.drain(i..=i + 1);
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    if std::env::var("SDBP_INSTRUCTIONS").is_err() {
        std::env::set_var("SDBP_INSTRUCTIONS", SMOKE_INSTRUCTIONS.to_string());
    }

    let serial = Engine::serial();
    let s = measure(&serial);

    let parallel = match workers {
        Some(n) => Engine::new(Parallelism::Workers(n)),
        None => Engine::new(Parallelism::Auto),
    };
    let p = measure(&parallel);

    let identical = s.rendered == p.rendered;
    let serial_tput = if s.total_s > 0.0 { s.accesses as f64 / s.total_s } else { 0.0 };
    let parallel_tput =
        if p.total_s > 0.0 { p.accesses as f64 / p.total_s } else { 0.0 };
    let speedup = if p.total_s > 0.0 { s.total_s / p.total_s } else { 1.0 };

    let json = format!(
        "{{\n  \"schema\": \"sdbp-bench/v1\",\n  \"name\": \"engine_smoke\",\n  \
         \"workers\": {},\n  \"serial\": {{\n    \"record_s\": {:.6},\n    \
         \"replay_s\": {:.6},\n    \"elapsed_s\": {:.6},\n    \
         \"accesses\": {},\n    \"accesses_per_sec\": {:.1}\n  }},\n  \
         \"parallel\": {{\n    \"record_s\": {:.6},\n    \"replay_s\": {:.6},\n    \
         \"elapsed_s\": {:.6},\n    \"accesses\": {},\n    \
         \"accesses_per_sec\": {:.1}\n  }},\n  \"speedup\": {:.3},\n  \
         \"identical_output\": {}\n}}\n",
        parallel.workers(),
        s.record_s,
        s.replay_s,
        s.total_s,
        s.accesses,
        serial_tput,
        p.record_s,
        p.replay_s,
        p.total_s,
        p.accesses,
        parallel_tput,
        speedup,
        identical
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
        "engine smoke: serial {:.2}s (record {:.2}s + replay {:.2}s, {serial_tput:.0} acc/s), \
         parallel x{} {:.2}s (record {:.2}s + replay {:.2}s, {parallel_tput:.0} acc/s), \
         speedup {speedup:.2}, identical: {identical} -> {output}",
        s.total_s,
        s.record_s,
        s.replay_s,
        parallel.workers(),
        p.total_s,
        p.record_s,
        p.replay_s,
    );
    if !identical {
        eprintln!("error: parallel output differs from serial output");
        std::process::exit(1);
    }

    let trace_accesses = std::env::var("SDBP_TRACEIO_ACCESSES")
        .ok()
        .and_then(|s| s.replace('_', "").parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(TRACEIO_ACCESSES);
    let trace_json = traceio_bench(trace_accesses);
    if let Some(parent) = std::path::Path::new(&traceio_output).parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("cannot create {}: {e}", parent.display());
                std::process::exit(1);
            }
        }
    }
    if let Err(e) = std::fs::write(&traceio_output, &trace_json) {
        eprintln!("cannot write {traceio_output}: {e}");
        std::process::exit(1);
    }
    println!("traceio bench: {trace_accesses} accesses round-tripped -> {traceio_output}");
}
