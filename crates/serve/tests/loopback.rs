//! Real-TCP loopback tests: wire determinism against the golden fixture,
//! window streaming, typed rejections, queue backpressure, and a client
//! that stops reading.
//!
//! The determinism test is the acceptance property of the serve plane: a
//! job submitted over the wire must produce miss counts bit-identical to
//! an in-process replay of the same trace — pinned, transitively, by the
//! same `tests/golden/replay_miss_counts.tsv` rows that gate the
//! data-plane refactor.

use sdbp::registry::standard;
use sdbp_serve::protocol::ErrorCode;
use sdbp_serve::{
    Client, JobOutcome, JobRequest, ServeError, Server, ServerConfig, SubmitReply, TraceSubmission,
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
    row.rsplit('\t')
        .next()
        .expect("miss field")
        .parse()
        .expect("miss count")
}

/// Records the golden cell's workload into an in-memory `.sdbt` image —
/// the same bytes `sdbp-repro trace record` would write.
fn trace_bytes(instructions: u64) -> Vec<u8> {
    workload_bytes(WORKLOAD, instructions)
}

/// Records `workload`'s first `instructions` into an in-memory `.sdbt`
/// image.
fn workload_bytes(workload: &str, instructions: u64) -> Vec<u8> {
    let bench = benchmark(workload).expect("workload in suite");
    let mut buf = Cursor::new(Vec::new());
    let meta = TraceMeta::new(bench.name, bench.stream_seed(0));
    let mut writer = TraceWriter::new(&mut buf, meta).expect("header writes");
    writer
        .write_all(bench.trace().take(instructions as usize))
        .expect("records write");
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
    use sdbp_serve::protocol::{Frame, TraceRef, PROTOCOL_VERSION, TRACE_CHUNK_BYTES};
    use std::net::TcpStream;

    let trace = trace_bytes(INSTRUCTIONS);
    // Sixteen back-to-back windowed jobs on one connection with one
    // executor, driven frame by frame: the executor may pick a job up the
    // moment it is queued, yet JobAccepted must reach the client before
    // any WindowResult or JobDone of that job.
    let (server, addr) = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut conn = TcpStream::connect(&addr).expect("connect");
    Frame::Hello {
        version: PROTOCOL_VERSION,
        client: "ordering".to_owned(),
    }
    .write_to(&mut conn)
    .expect("hello");
    match Frame::read_from(&mut &conn).expect("ack readable") {
        Some(Frame::HelloAck { server, .. }) => assert_eq!(server, "sdbp-serve"),
        other => panic!("expected HelloAck, got {other:?}"),
    }

    for (i, spec) in ["lru", "sampler"].into_iter().cycle().take(16).enumerate() {
        Frame::SubmitJob {
            policy: spec.to_owned(),
            sets: SETS,
            ways: WAYS,
            window: 25_000,
            trace: TraceRef::Inline {
                total: trace.len() as u64,
            },
        }
        .write_to(&mut conn)
        .expect("submit");
        for chunk in trace.chunks(TRACE_CHUNK_BYTES) {
            Frame::TraceChunk {
                bytes: chunk.to_vec(),
            }
            .write_to(&mut conn)
            .expect("chunk");
        }
        Frame::TraceEnd.write_to(&mut conn).expect("end");

        let job = match Frame::read_from(&mut &conn).expect("readable") {
            Some(Frame::JobAccepted { job }) => job,
            other => panic!("job {i} ({spec}): expected JobAccepted first, got {other:?}"),
        };
        let (mut streamed, mut streamed_misses) = (0u64, 0u64);
        loop {
            match Frame::read_from(&mut &conn).expect("readable") {
                Some(Frame::WindowResult {
                    job: j,
                    index,
                    misses,
                }) => {
                    assert_eq!(
                        (j, index),
                        (job, streamed),
                        "job {i} ({spec}): stray window"
                    );
                    streamed += 1;
                    streamed_misses += misses;
                }
                Some(Frame::JobDone {
                    job: j,
                    workload,
                    instructions,
                    accesses,
                    hits,
                    misses,
                    windows,
                    ipc_bits,
                }) => {
                    assert_eq!(j, job, "job {i} ({spec})");
                    assert_eq!(misses, golden_misses(spec), "{spec}: wire misses drifted");
                    assert_eq!(workload, WORKLOAD);
                    assert_eq!(instructions, INSTRUCTIONS);
                    assert_eq!(accesses, hits + misses, "{spec}");
                    assert_eq!((windows, streamed_misses), (streamed, misses), "{spec}");
                    assert!(windows > 1, "{spec}: the cell spans multiple windows");
                    assert!(f64::from_bits(ipc_bits) > 0.0, "{spec}");
                    break;
                }
                other => panic!("job {i} ({spec}): expected a result frame, got {other:?}"),
            }
        }
    }
    Frame::Goodbye.write_to(&mut conn).expect("goodbye");
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
    let SubmitReply::Done(outcome) = reply else {
        panic!("unexpected Busy")
    };

    assert_eq!(outcome.misses, golden_misses("lru"));
    assert_eq!(
        outcome.windows,
        streamed.len() as u64,
        "every window was streamed"
    );
    assert!(outcome.windows > 1, "the cell spans multiple windows");
    let indices: Vec<u64> = streamed.iter().map(|(i, _)| *i).collect();
    assert_eq!(
        indices,
        (0..outcome.windows).collect::<Vec<u64>>(),
        "in order, no gaps"
    );
    let sum: u64 = streamed.iter().map(|(_, m)| m).sum();
    assert_eq!(
        sum, outcome.misses,
        "windows partition the total miss count"
    );
    server.shutdown();
}

#[test]
fn bad_submissions_get_typed_errors_and_the_session_survives() {
    let trace = trace_bytes(20_000);
    let (server, addr) = start(ServerConfig::default());
    let mut client = Client::connect(&addr).expect("connect");

    // Unknown policy spec.
    let mut request = JobRequest::new("no-such-policy", TraceSubmission::Bytes(trace.clone()));
    match client.submit(&request, |_, _| {}) {
        Err(ServeError::Remote {
            code: ErrorCode::BadSpec,
            ..
        }) => {}
        other => panic!("expected BadSpec, got {other:?}"),
    }

    // Non-power-of-two set count.
    request.policy = "lru".to_owned();
    request.sets = 300;
    match client.submit(&request, |_, _| {}) {
        Err(ServeError::Remote {
            code: ErrorCode::BadGeometry,
            ..
        }) => {}
        other => panic!("expected BadGeometry, got {other:?}"),
    }

    // More ways than a cache row holds: far past it, and one past it.
    request.sets = 256;
    for ways in [300, 17] {
        request.ways = ways;
        match client.submit(&request, |_, _| {}) {
            Err(ServeError::Remote {
                code: ErrorCode::BadGeometry,
                detail,
            }) => assert!(detail.contains("at most 16"), "{detail}"),
            other => panic!("expected BadGeometry for {ways} ways, got {other:?}"),
        }
    }

    // Garbage trace bytes.
    request.ways = 16;
    request.trace = TraceSubmission::Bytes(vec![0u8; 64]);
    match client.submit(&request, |_, _| {}) {
        Err(ServeError::Remote {
            code: ErrorCode::BadTrace,
            ..
        }) => {}
        other => panic!("expected BadTrace, got {other:?}"),
    }

    // The same connection still runs a good job after five rejections.
    request.trace = TraceSubmission::Bytes(trace);
    let reply = client
        .submit(&request, |_, _| {})
        .expect("good job after rejections");
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
    Frame::Hello {
        version: PROTOCOL_VERSION,
        client: "parked".to_owned(),
    }
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
        trace: TraceRef::Inline {
            total: trace.len() as u64,
        },
    }
    .write_to(&mut parked)
    .expect("submit A");
    Frame::TraceChunk {
        bytes: trace.clone(),
    }
    .write_to(&mut parked)
    .expect("chunk");
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
        Some(Frame::ErrorReply {
            code: ErrorCode::Shutdown,
            ..
        }) => {}
        other => panic!("expected the parked job to be aborted by shutdown, got {other:?}"),
    }
}

#[test]
fn a_client_that_stops_reading_does_not_stall_the_daemon() {
    use sdbp_serve::protocol::{Frame, TraceRef, PROTOCOL_VERSION, TRACE_CHUNK_BYTES};
    use std::net::TcpStream;
    use std::sync::mpsc;

    // 2M instructions of mcf reach the LLC about 1.6M times; at one
    // window per access, the job's WindowResult frames are far more
    // bytes than the loopback socket buffers hold.
    let big = workload_bytes("429.mcf", 2_000_000);
    let (server, addr) = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut stalled = TcpStream::connect(&addr).expect("connect");
    Frame::Hello {
        version: PROTOCOL_VERSION,
        client: "stalled".to_owned(),
    }
    .write_to(&mut stalled)
    .expect("hello");
    Frame::SubmitJob {
        policy: "lru".to_owned(),
        sets: 2048,
        ways: 16,
        window: 1,
        trace: TraceRef::Inline {
            total: big.len() as u64,
        },
    }
    .write_to(&mut stalled)
    .expect("submit");
    for chunk in big.chunks(TRACE_CHUNK_BYTES) {
        Frame::TraceChunk {
            bytes: chunk.to_vec(),
        }
        .write_to(&mut stalled)
        .expect("chunk");
    }
    Frame::TraceEnd.write_to(&mut stalled).expect("end");
    // Read up to the acceptance, so the big job is queued first, then
    // never read again.
    for expected in ["HelloAck", "JobAccepted"] {
        let frame = Frame::read_from(&mut &stalled)
            .expect("readable")
            .expect("a frame");
        assert_eq!(frame.name(), expected);
    }

    // A second client, on a thread so that a stalled daemon fails the
    // test instead of hanging it.
    let small = trace_bytes(20_000);
    let (served, outcome) = mpsc::channel();
    let second = std::thread::spawn(move || {
        let reply = Client::connect(&addr).and_then(|mut client| {
            client.submit(
                &JobRequest::new("lru", TraceSubmission::Bytes(small)),
                |_, _| {},
            )
        });
        served.send(reply).expect("the test is waiting");
    });
    let reply = outcome.recv_timeout(Duration::from_secs(30));
    // Closing the stalled socket fails whatever write blocks on it, so
    // the daemon can wind down whether or not the test passed.
    drop(stalled);
    second.join().expect("second client");
    server.shutdown();
    match reply {
        Ok(Ok(SubmitReply::Done(outcome))) => assert_eq!(outcome.workload, WORKLOAD),
        other => panic!("a stalled client kept the second one waiting: {other:?}"),
    }
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
        Err(ServeError::Remote {
            code: ErrorCode::Shutdown,
            ..
        })
        | Err(ServeError::Frame(_))
        | Err(ServeError::Protocol { .. }) => {}
        other => panic!("expected a shutdown refusal, got {other:?}"),
    }
    server.shutdown();
    drop(server);
    // Give the OS a beat to release the port before the next test binds.
    std::thread::sleep(Duration::from_millis(10));
}

/// A completed job as the client saw it: the `JobDone` counters (job id
/// zeroed, since ids differ between servers) and the streamed
/// `(index, misses)` windows.
type Frames = (JobOutcome, Vec<(u64, u64)>);

/// Submits `policy` over `trace` on `client` and collects its frames.
fn frames(client: &mut Client, policy: &str, window: u32, trace: &[u8]) -> Frames {
    let request = JobRequest {
        policy: policy.to_owned(),
        sets: SETS,
        ways: WAYS,
        window,
        trace: TraceSubmission::Bytes(trace.to_vec()),
    };
    let mut windows = Vec::new();
    let reply = client
        .submit(&request, |index, misses| windows.push((index, misses)))
        .unwrap_or_else(|e| panic!("{policy} window={window}: {e}"));
    let SubmitReply::Done(outcome) = reply else {
        panic!("unexpected Busy")
    };
    (JobOutcome { job: 0, ..outcome }, windows)
}

/// Jobs whose telemetry source says they replayed a memoised recording.
fn reused_jobs(server: &Server) -> usize {
    server
        .engine()
        .telemetry()
        .batches
        .iter()
        .flat_map(|b| &b.per_job)
        .filter(|j| j.source.as_deref().is_some_and(|s| s.ends_with("+reused")))
        .count()
}

#[test]
fn memo_hits_stream_the_frames_of_a_fresh_server() {
    let trace = trace_bytes(INSTRUCTIONS);
    let policies: Vec<&str> = standard().entries().iter().map(|e| e.name).collect();
    let (server, addr) = start(ServerConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    let mut jobs = 0;
    for window in [0, 25_000] {
        for &policy in &policies {
            let memo = frames(&mut client, policy, window, &trace);
            let (fresh_server, fresh_addr) = start(ServerConfig::default());
            let mut fresh_client = Client::connect(&fresh_addr).expect("connect");
            let fresh = frames(&mut fresh_client, policy, window, &trace);
            fresh_client.goodbye().expect("goodbye");
            fresh_server.shutdown();
            assert_eq!(reused_jobs(&fresh_server), 0, "a fresh server records");
            assert_eq!(memo, fresh, "{policy} window={window}: memo frames differ");
            jobs += 1;
        }
    }
    // Every job after the session's first replayed the first one's
    // recording.
    assert_eq!(reused_jobs(&server), jobs - 1);
    client.goodbye().expect("goodbye");
    server.shutdown();
}

#[test]
fn a_one_byte_change_of_the_same_length_is_not_a_memo_hit() {
    let trace = trace_bytes(20_000);
    let mut flipped = trace.clone();
    // Past the header, so the session accepts the job and only indexing
    // can find the damage.
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x10;
    let (server, addr) = start(ServerConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    frames(&mut client, "lru", 0, &trace);
    let request = JobRequest::new("lru", TraceSubmission::Bytes(flipped));
    match client.submit(&request, |_, _| {}) {
        Err(ServeError::Remote {
            code: ErrorCode::BadTrace,
            ..
        }) => {}
        other => panic!("expected BadTrace for a damaged upload, got {other:?}"),
    }
    assert_eq!(reused_jobs(&server), 0);
    server.shutdown();
}

#[test]
fn an_evicted_upload_records_again_with_the_same_counters() {
    let (a, b) = (trace_bytes(20_000), trace_bytes(30_000));
    let (server, addr) = start(ServerConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    let first = frames(&mut client, "sampler", 0, &a);
    let other = frames(&mut client, "sampler", 0, &b);
    let again = frames(&mut client, "sampler", 0, &a);
    assert_ne!(first.0.instructions, other.0.instructions);
    assert_eq!(again, first, "A after B must give A's counters");
    assert_eq!(reused_jobs(&server), 0, "one slot: B evicted A");
    server.shutdown();
}

#[test]
fn sessions_never_share_a_recording() {
    let trace = trace_bytes(INSTRUCTIONS);
    let (server, addr) = start(ServerConfig::default());
    let mut one = Client::connect(&addr).expect("connect");
    let mut two = Client::connect(&addr).expect("connect");
    for policy in ["lru", "sampler"] {
        for client in [&mut one, &mut two] {
            let (outcome, _) = frames(client, policy, 0, &trace);
            assert_eq!(outcome.misses, golden_misses(policy), "{policy}");
        }
    }
    // Interleaved sessions evict each other's recordings.
    assert_eq!(reused_jobs(&server), 0);
    let (outcome, _) = frames(&mut two, "lru", 0, &trace);
    assert_eq!(outcome.misses, golden_misses("lru"));
    assert_eq!(
        reused_jobs(&server),
        1,
        "a session reuses its own recording"
    );
    server.shutdown();
}
