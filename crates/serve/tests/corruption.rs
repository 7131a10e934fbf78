//! Wire-corruption coverage, driven through raw sockets so the tests
//! control exactly which bytes hit the daemon: truncated frames,
//! oversized length prefixes, version mismatches, and mid-transfer
//! disconnects. Every case must surface as a typed reply (where the
//! stream is still frame-aligned) or a clean close — and none may poison
//! the job queue: a fresh connection afterwards still runs jobs.

use sdbp_serve::protocol::{ErrorCode, Frame, MAX_FRAME_LEN, PROTOCOL_VERSION};
use sdbp_serve::{Client, JobRequest, Server, ServerConfig, SubmitReply, TraceSubmission};
use sdbp_traceio::{TraceMeta, TraceWriter};
use sdbp_workloads::benchmark;
use std::io::{Cursor, Write};
use std::net::TcpStream;

fn trace_bytes() -> Vec<u8> {
    let bench = benchmark("456.hmmer").expect("workload in suite");
    let mut buf = Cursor::new(Vec::new());
    let meta = TraceMeta::new(bench.name, bench.stream_seed(0));
    let mut writer = TraceWriter::new(&mut buf, meta).expect("header writes");
    writer
        .write_all(bench.trace().take(20_000))
        .expect("records write");
    writer.finish().expect("finish");
    buf.into_inner()
}

/// Connects a raw socket and performs a valid handshake.
fn handshaken(addr: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    Frame::Hello {
        version: PROTOCOL_VERSION,
        client: "raw-test".to_owned(),
    }
    .write_to(&mut stream)
    .expect("hello");
    match Frame::read_from(&mut &stream).expect("ack readable") {
        Some(Frame::HelloAck { .. }) => stream,
        other => panic!("expected HelloAck, got {other:?}"),
    }
}

/// After a corruption scenario, the daemon must still run a clean job.
fn still_serves(addr: &str, trace: &[u8]) {
    let mut client = Client::connect(addr).expect("fresh connection");
    let request = JobRequest::new("lru", TraceSubmission::Bytes(trace.to_vec()));
    let reply = client.submit(&request, |_, _| {}).expect("clean job");
    assert!(
        matches!(reply, SubmitReply::Done(_)),
        "queue slot was poisoned"
    );
}

#[test]
fn version_mismatch_is_refused_with_a_typed_reply() {
    let server = Server::start(ServerConfig::default()).expect("server starts");
    let addr = server.local_addr().to_string();

    let mut stream = TcpStream::connect(&addr).expect("connect");
    Frame::Hello {
        version: 99,
        client: "time-traveller".to_owned(),
    }
    .write_to(&mut stream)
    .expect("hello");
    match Frame::read_from(&mut &stream).expect("reply readable") {
        Some(Frame::ErrorReply {
            code: ErrorCode::BadVersion,
            detail,
        }) => {
            assert!(detail.contains("99"), "{detail:?}");
        }
        other => panic!("expected BadVersion, got {other:?}"),
    }
    // The refusal closes the connection.
    assert!(matches!(Frame::read_from(&mut &stream), Ok(None)));

    still_serves(&addr, &trace_bytes());
    server.shutdown();
}

#[test]
fn truncated_frame_closes_the_session_with_a_protocol_error() {
    let server = Server::start(ServerConfig::default()).expect("server starts");
    let addr = server.local_addr().to_string();

    let mut stream = handshaken(&addr);
    // Declare a 100-byte payload, deliver 10, and half-close so the
    // server's read sees EOF mid-frame.
    stream.write_all(&100u32.to_le_bytes()).expect("prefix");
    stream.write_all(&[0u8; 10]).expect("partial payload");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    match Frame::read_from(&mut &stream).expect("reply readable") {
        Some(Frame::ErrorReply {
            code: ErrorCode::Protocol,
            detail,
        }) => {
            assert!(detail.contains("mid-frame"), "{detail:?}");
        }
        other => panic!("expected a Protocol error, got {other:?}"),
    }

    still_serves(&addr, &trace_bytes());
    server.shutdown();
}

#[test]
fn oversized_length_prefix_is_rejected_before_allocation() {
    let server = Server::start(ServerConfig::default()).expect("server starts");
    let addr = server.local_addr().to_string();

    let mut stream = handshaken(&addr);
    let huge = MAX_FRAME_LEN + 1;
    stream.write_all(&huge.to_le_bytes()).expect("prefix");
    stream.flush().expect("flush");
    // The server rejects on the prefix alone — no payload was ever sent.
    match Frame::read_from(&mut &stream).expect("reply readable") {
        Some(Frame::ErrorReply {
            code: ErrorCode::Protocol,
            detail,
        }) => {
            assert!(detail.contains("exceeds"), "{detail:?}");
        }
        other => panic!("expected a Protocol error, got {other:?}"),
    }
    assert!(
        matches!(Frame::read_from(&mut &stream), Ok(None)),
        "session closed"
    );

    still_serves(&addr, &trace_bytes());
    server.shutdown();
}

#[test]
fn unknown_frame_kind_is_a_typed_protocol_error() {
    let server = Server::start(ServerConfig::default()).expect("server starts");
    let addr = server.local_addr().to_string();

    let mut stream = handshaken(&addr);
    // A well-framed payload whose kind byte (0x7f) is not in the protocol.
    stream.write_all(&1u32.to_le_bytes()).expect("prefix");
    stream.write_all(&[0x7f]).expect("kind");
    match Frame::read_from(&mut &stream).expect("reply readable") {
        Some(Frame::ErrorReply {
            code: ErrorCode::Protocol,
            detail,
        }) => {
            assert!(detail.contains("0x7f"), "{detail:?}");
        }
        other => panic!("expected a Protocol error, got {other:?}"),
    }

    still_serves(&addr, &trace_bytes());
    server.shutdown();
}

#[test]
fn mid_transfer_disconnect_does_not_poison_the_queue() {
    let trace = trace_bytes();
    let server = Server::start(ServerConfig::default()).expect("server starts");
    let addr = server.local_addr().to_string();

    {
        let mut stream = handshaken(&addr);
        // Declare a big inline trace, send one short chunk, vanish.
        Frame::SubmitJob {
            policy: "lru".to_owned(),
            sets: 256,
            ways: 16,
            window: 0,
            trace: sdbp_serve::protocol::TraceRef::Inline { total: 1_000_000 },
        }
        .write_to(&mut stream)
        .expect("submit");
        Frame::TraceChunk {
            bytes: vec![0u8; 100],
        }
        .write_to(&mut stream)
        .expect("chunk");
        // Dropping the stream closes the socket mid-transfer.
    }

    // The half-received job was discarded, not enqueued: a fresh
    // connection's job runs immediately.
    still_serves(&addr, &trace);

    // And the disconnect also did not desynchronize other sessions: a
    // second clean job on yet another connection still works.
    still_serves(&addr, &trace);
    server.shutdown();
}

#[test]
fn misplaced_frames_are_reported_and_the_session_continues() {
    let trace = trace_bytes();
    let server = Server::start(ServerConfig::default()).expect("server starts");
    let addr = server.local_addr().to_string();

    let mut stream = handshaken(&addr);
    // A TraceChunk with no pending submission is wire-valid but out of
    // place; the session answers and keeps serving on the same socket.
    Frame::TraceChunk {
        bytes: vec![1, 2, 3],
    }
    .write_to(&mut stream)
    .expect("chunk");
    match Frame::read_from(&mut &stream).expect("reply readable") {
        Some(Frame::ErrorReply {
            code: ErrorCode::Protocol,
            detail,
        }) => {
            assert!(detail.contains("TraceChunk"), "{detail:?}");
        }
        other => panic!("expected a Protocol error, got {other:?}"),
    }

    // Same socket, full job: the session loop really did continue.
    Frame::SubmitJob {
        policy: "lru".to_owned(),
        sets: 256,
        ways: 16,
        window: 0,
        trace: sdbp_serve::protocol::TraceRef::Inline {
            total: trace.len() as u64,
        },
    }
    .write_to(&mut stream)
    .expect("submit");
    Frame::TraceChunk {
        bytes: trace.clone(),
    }
    .write_to(&mut stream)
    .expect("chunk");
    Frame::TraceEnd.write_to(&mut stream).expect("end");
    match Frame::read_from(&mut &stream).expect("accept readable") {
        Some(Frame::JobAccepted { .. }) => {}
        other => panic!("expected JobAccepted, got {other:?}"),
    }
    match Frame::read_from(&mut &stream).expect("done readable") {
        Some(Frame::JobDone { misses, .. }) => assert!(misses > 0),
        other => panic!("expected JobDone, got {other:?}"),
    }
    server.shutdown();
}
