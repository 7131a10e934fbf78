//! Real-TCP loopback tests: wire determinism against the golden fixture,
//! window streaming, typed rejections, and queue backpressure.
//!
//! The determinism test is the acceptance property of the serve plane: a
//! job submitted over the wire must produce miss counts bit-identical to
//! an in-process replay of the same trace — pinned, transitively, by the
//! same `tests/golden/replay_miss_counts.tsv` rows that gate the
//! data-plane refactor.

use sdbp_serve::protocol::ErrorCode;
use sdbp_serve::{
    Client, JobRequest, ServeError, Server, ServerConfig, SubmitReply, TraceSubmission,
};
use sdbp_traceio::{TraceMeta, TraceWriter};
use sdbp_workloads::benchmark;
use std::io::Cursor;
use std::time::Duration;

const FIXTURE: &str = include_str!("../../../tests/golden/replay_miss_counts.tsv");

/// The golden cell the wire tests replay: 456.hmmer, 500K instructions,
/// a 256-set 16-way LLC.
const WORKLOAD: &str = "456.hmmer";
const INSTRUCTIONS: u64 = 500_000;
const SETS: u32 = 256;
const WAYS: u32 = 16;

/// Golden miss count for `spec` in the pinned cell.
fn golden_misses(spec: &str) -> u64 {
    let needle = format!("{WORKLOAD}\t{INSTRUCTIONS}\t{SETS}\t{WAYS}\t{spec}\t");
    let row = FIXTURE
        .lines()
        .find(|l| l.starts_with(&needle))
        .unwrap_or_else(|| panic!("fixture misses row for {spec}"));
    row.rsplit('\t').next().expect("miss field").parse().expect("miss count")
}

/// Records the golden cell's workload into an in-memory `.sdbt` image —
/// the same bytes `sdbp-repro trace record` would write.
fn trace_bytes(instructions: u64) -> Vec<u8> {
    let bench = benchmark(WORKLOAD).expect("workload in suite");
    let mut buf = Cursor::new(Vec::new());
    let meta = TraceMeta::new(bench.name, bench.stream_seed(0));
    let mut writer = TraceWriter::new(&mut buf, meta).expect("header writes");
    writer.write_all(bench.trace().take(instructions as usize)).expect("records write");
    writer.finish().expect("finish");
    buf.into_inner()
}

fn start(config: ServerConfig) -> (Server, String) {
    let server = Server::start(config).expect("server starts");
    let addr = server.local_addr().to_string();
    (server, addr)
}

#[test]
fn wire_replay_matches_the_golden_fixture_bit_exactly() {
    let trace = trace_bytes(INSTRUCTIONS);
    let (server, addr) = start(ServerConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    assert_eq!(client.server_name(), "sdbp-serve");

    for spec in ["lru", "sampler"] {
        let request = JobRequest {
            policy: spec.to_owned(),
            sets: SETS,
            ways: WAYS,
            window: 0,
            trace: TraceSubmission::Bytes(trace.clone()),
        };
        let reply = client.submit(&request, |_, _| {}).expect("submit");
        let SubmitReply::Done(outcome) = reply else {
            panic!("{spec}: unexpected Busy from an idle server")
        };
        assert_eq!(outcome.misses, golden_misses(spec), "{spec}: wire misses drifted");
        assert_eq!(outcome.workload, WORKLOAD);
        assert_eq!(outcome.instructions, INSTRUCTIONS);
        assert_eq!(outcome.accesses, outcome.hits + outcome.misses, "{spec}");
        assert_eq!(outcome.windows, 0, "{spec}: windowing was off");
        assert!(outcome.ipc > 0.0, "{spec}");
        assert!(outcome.mpki() > 0.0, "{spec}");
    }
    client.goodbye().expect("goodbye");
    server.shutdown();
}

#[test]
fn window_streaming_partitions_the_exact_miss_count() {
    let trace = trace_bytes(INSTRUCTIONS);
    let (server, addr) = start(ServerConfig::default());
    let mut client = Client::connect(&addr).expect("connect");

    let request = JobRequest {
        policy: "lru".to_owned(),
        sets: SETS,
        ways: WAYS,
        window: 50_000,
        trace: TraceSubmission::Bytes(trace),
    };
    let mut streamed: Vec<(u64, u64)> = Vec::new();
    let reply = client
        .submit(&request, |index, misses| streamed.push((index, misses)))
        .expect("submit");
    let SubmitReply::Done(outcome) = reply else { panic!("unexpected Busy") };

    assert_eq!(outcome.misses, golden_misses("lru"));
    assert_eq!(outcome.windows, streamed.len() as u64, "every window was streamed");
    assert!(outcome.windows > 1, "the cell spans multiple windows");
    let indices: Vec<u64> = streamed.iter().map(|(i, _)| *i).collect();
    assert_eq!(indices, (0..outcome.windows).collect::<Vec<u64>>(), "in order, no gaps");
    let sum: u64 = streamed.iter().map(|(_, m)| m).sum();
    assert_eq!(sum, outcome.misses, "windows partition the total miss count");
    server.shutdown();
}

#[test]
fn sharded_server_streams_bit_identical_frames() {
    let trace = trace_bytes(INSTRUCTIONS);
    // A 4-shard server with the size floor lowered to zero, so even this
    // small job takes the sharded path; the plain server is the serial
    // reference.
    let (serial, serial_addr) = start(ServerConfig::default());
    let (sharded, sharded_addr) = start(ServerConfig {
        shards: 4,
        shard_min_accesses: 0,
        ..ServerConfig::default()
    });

    // `lru` is shardable; `sampler` is not (global predictor state) and
    // must fall back to the serial kernel inside the sharded server.
    for spec in ["lru", "sampler"] {
        let request = JobRequest {
            policy: spec.to_owned(),
            sets: SETS,
            ways: WAYS,
            window: 25_000,
            trace: TraceSubmission::Bytes(trace.clone()),
        };
        let run = |addr: &str| {
            let mut client = Client::connect(addr).expect("connect");
            let mut frames: Vec<(u64, u64)> = Vec::new();
            let reply = client
                .submit(&request, |index, misses| frames.push((index, misses)))
                .expect("submit");
            let SubmitReply::Done(outcome) = reply else { panic!("unexpected Busy") };
            client.goodbye().expect("goodbye");
            (outcome, frames)
        };
        let (a, frames_a) = run(&serial_addr);
        let (b, frames_b) = run(&sharded_addr);
        assert_eq!(a.misses, golden_misses(spec), "{spec}: serial misses drifted");
        assert_eq!(b.misses, a.misses, "{spec}: sharded misses differ");
        assert_eq!(b.hits, a.hits, "{spec}");
        assert_eq!(b.windows, a.windows, "{spec}");
        assert_eq!(b.ipc.to_bits(), a.ipc.to_bits(), "{spec}: IPC must be bit-exact");
        assert_eq!(frames_b, frames_a, "{spec}: window frame streams differ");
    }
    serial.shutdown();
    sharded.shutdown();
}

#[test]
fn bad_submissions_get_typed_errors_and_the_session_survives() {
    let trace = trace_bytes(20_000);
    let (server, addr) = start(ServerConfig::default());
    let mut client = Client::connect(&addr).expect("connect");

    // Unknown policy spec.
    let mut request = JobRequest::new("no-such-policy", TraceSubmission::Bytes(trace.clone()));
    match client.submit(&request, |_, _| {}) {
        Err(ServeError::Remote { code: ErrorCode::BadSpec, .. }) => {}
        other => panic!("expected BadSpec, got {other:?}"),
    }

    // Non-power-of-two set count.
    request.policy = "lru".to_owned();
    request.sets = 300;
    match client.submit(&request, |_, _| {}) {
        Err(ServeError::Remote { code: ErrorCode::BadGeometry, .. }) => {}
        other => panic!("expected BadGeometry, got {other:?}"),
    }

    // Garbage trace bytes.
    request.sets = 256;
    request.trace = TraceSubmission::Bytes(vec![0u8; 64]);
    match client.submit(&request, |_, _| {}) {
        Err(ServeError::Remote { code: ErrorCode::BadTrace, .. }) => {}
        other => panic!("expected BadTrace, got {other:?}"),
    }

    // Archive submissions need a trace directory.
    request.trace = TraceSubmission::Archive("missing.sdbt".to_owned());
    match client.submit(&request, |_, _| {}) {
        Err(ServeError::Remote { code: ErrorCode::BadArchive, .. }) => {}
        other => panic!("expected BadArchive, got {other:?}"),
    }

    // The same connection still runs a good job after four rejections.
    request.trace = TraceSubmission::Bytes(trace);
    let reply = client.submit(&request, |_, _| {}).expect("good job after rejections");
    assert!(matches!(reply, SubmitReply::Done(_)));
    server.shutdown();
}

#[test]
fn saturated_queue_answers_busy_and_shutdown_releases_parked_jobs() {
    use sdbp_serve::protocol::{Frame, TraceRef, PROTOCOL_VERSION};
    use std::net::TcpStream;

    let trace = trace_bytes(20_000);
    // No executors: accepted jobs queue forever, making saturation (and
    // the shutdown drain) deterministic.
    let (server, addr) = start(ServerConfig {
        workers: 0,
        queue_depth: 1,
        ..ServerConfig::default()
    });

    // Connection A fills the single queue slot, driven frame-by-frame so
    // the test holds the JobAccepted proof before anyone else submits.
    let mut parked = TcpStream::connect(&addr).expect("connect A");
    Frame::Hello { version: PROTOCOL_VERSION, client: "parked".to_owned() }
        .write_to(&mut parked)
        .expect("hello");
    match Frame::read_from(&mut &parked).expect("ack readable") {
        Some(Frame::HelloAck { queue_depth, .. }) => assert_eq!(queue_depth, 1),
        other => panic!("expected HelloAck, got {other:?}"),
    }
    Frame::SubmitJob {
        policy: "lru".to_owned(),
        sets: 256,
        ways: 16,
        window: 0,
        trace: TraceRef::Inline { total: trace.len() as u64 },
    }
    .write_to(&mut parked)
    .expect("submit A");
    Frame::TraceChunk { bytes: trace.clone() }.write_to(&mut parked).expect("chunk");
    Frame::TraceEnd.write_to(&mut parked).expect("end");
    match Frame::read_from(&mut &parked).expect("accept readable") {
        Some(Frame::JobAccepted { .. }) => {}
        other => panic!("expected JobAccepted, got {other:?}"),
    }

    // The slot is provably taken; client B must bounce off it.
    let mut client = Client::connect(&addr).expect("connect B");
    assert_eq!(client.queue_depth(), 1);
    let request = JobRequest::new("lru", TraceSubmission::Bytes(trace));
    match client.submit(&request, |_, _| {}).expect("submit B") {
        SubmitReply::Busy { queue_depth } => assert_eq!(queue_depth, 1),
        SubmitReply::Done(_) => panic!("no executor can have finished a job"),
    }

    // Shutdown aborts the parked job with a typed refusal, not a hang.
    server.shutdown();
    match Frame::read_from(&mut &parked).expect("abort readable") {
        Some(Frame::ErrorReply { code: ErrorCode::Shutdown, .. }) => {}
        other => panic!("expected the parked job to be aborted by shutdown, got {other:?}"),
    }
}

#[test]
fn archive_submissions_resolve_against_the_trace_dir() {
    let trace = trace_bytes(20_000);
    let dir = std::env::temp_dir().join(format!("sdbp-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp trace dir");
    std::fs::write(dir.join("cell.sdbt"), &trace).expect("archive written");

    let (server, addr) = start(ServerConfig {
        trace_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr).expect("connect");

    // A path-traversing name is refused outright.
    let evil = JobRequest::new("lru", TraceSubmission::Archive("../cell.sdbt".to_owned()));
    match client.submit(&evil, |_, _| {}) {
        Err(ServeError::Remote { code: ErrorCode::BadArchive, .. }) => {}
        other => panic!("expected BadArchive for a traversal, got {other:?}"),
    }

    // The archive replay equals the inline replay of the same bytes.
    let by_name = JobRequest::new("lru", TraceSubmission::Archive("cell.sdbt".to_owned()));
    let inline = JobRequest::new("lru", TraceSubmission::Bytes(trace));
    let SubmitReply::Done(a) = client.submit(&by_name, |_, _| {}).expect("archive job")
    else {
        panic!("unexpected Busy")
    };
    let SubmitReply::Done(b) = client.submit(&inline, |_, _| {}).expect("inline job")
    else {
        panic!("unexpected Busy")
    };
    assert_eq!(a.misses, b.misses);
    assert_eq!(a.ipc.to_bits(), b.ipc.to_bits(), "IPC crosses the wire bit-exactly");

    server.shutdown();
    #[expect(
        clippy::let_underscore_must_use,
        reason = "best-effort temp cleanup; a leftover file is harmless"
    )]
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_is_idempotent_and_refuses_new_submissions() {
    let trace = trace_bytes(20_000);
    let (server, addr) = start(ServerConfig::default());
    let mut client = Client::connect(&addr).expect("connect");

    server.shutdown();
    // A submission racing shutdown gets a typed refusal or a dead socket,
    // never a hang.
    let request = JobRequest::new("lru", TraceSubmission::Bytes(trace));
    match client.submit(&request, |_, _| {}) {
        Err(ServeError::Remote { code: ErrorCode::Shutdown, .. })
        | Err(ServeError::Frame(_))
        | Err(ServeError::Protocol { .. }) => {}
        other => panic!("expected a shutdown refusal, got {other:?}"),
    }
    server.shutdown();
    drop(server);
    // Give the OS a beat to release the port before the next test binds.
    std::thread::sleep(Duration::from_millis(10));
}
