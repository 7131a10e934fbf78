//! Per-connection session layer: handshake, request parsing, inline
//! trace transfer, the enqueue/backpressure decision, and every write to
//! the connection.
//!
//! A session owns its connection and parses one request at a time. It is
//! the connection's only writer: while a job runs, the session relays
//! the window counts and the final frame that the executor sends over the
//! job's channel, after its own `JobAccepted`, so frames never interleave
//! and an executor never waits on a client. Peer mistakes are answered
//! with typed `ErrorReply` frames where the stream is still in sync, and
//! by closing the connection where it cannot be (framing corruption, a
//! wrong frame mid-transfer). Nothing a client sends can poison a queue
//! slot: a job is enqueued only after its submission — including every
//! inline trace byte — has been received and validated.

use crate::protocol::{ErrorCode, Frame, TraceRef, PROTOCOL_VERSION};
use crate::server::{JobEvent, QueuedJob, Shared};
use crate::with_lock;
use sdbp_cache::CacheConfig;
use sdbp_traceio::read_header;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};

/// Whether the session loop keeps serving after handling a request.
enum Flow {
    Continue,
    Close,
}

/// What the queue's critical section decided for one submission.
enum Decision {
    Shutdown,
    Busy,
    Accepted(u64),
}

/// A parsed `SubmitJob` frame; `total` is its inline trace's length.
struct Submission {
    policy: String,
    sets: u32,
    ways: u32,
    window: u32,
    total: u64,
}

/// Runs one connection to completion. Never panics; every exit path
/// leaves the shared queue consistent.
pub(crate) fn run_session(shared: &Arc<Shared>, stream: TcpStream, session: u64) {
    #[expect(
        clippy::let_underscore_must_use,
        reason = "disabling Nagle is a latency hint; a socket that refuses it still carries frames"
    )]
    let _ = stream.set_nodelay(true);
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    serve_connection(shared, &mut reader, &mut writer, session);
    // The accept loop holds another clone of this socket (to unblock the
    // read at shutdown), so dropping our halves is not enough to close
    // the connection — shut it down explicitly so the peer sees EOF as
    // soon as the session ends.
    #[expect(
        clippy::let_underscore_must_use,
        reason = "socket may already be closed; that is the goal state"
    )]
    let _ = writer.shutdown(std::net::Shutdown::Both);
}

/// The session state machine; returning ends the connection.
fn serve_connection(
    shared: &Arc<Shared>,
    mut reader: &mut BufReader<TcpStream>,
    mut writer: &mut TcpStream,
    session: u64,
) {
    // Handshake: exactly one Hello, version-checked, answered before any
    // job traffic.
    match Frame::read_from(&mut reader) {
        Ok(Some(Frame::Hello { version, client: _ })) => {
            if version != PROTOCOL_VERSION {
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "best-effort rejection notice before closing"
                )]
                let _ = Frame::ErrorReply {
                    code: ErrorCode::BadVersion,
                    detail: format!(
                        "server speaks protocol v{PROTOCOL_VERSION}, client offered v{version}"
                    ),
                }
                .write_to(&mut writer);
                return;
            }
            let ack = Frame::HelloAck {
                version: PROTOCOL_VERSION,
                server: shared.server_name.clone(),
                queue_depth: u32::try_from(shared.queue_depth).unwrap_or(u32::MAX),
            };
            if ack.write_to(&mut writer).is_err() {
                return;
            }
        }
        Ok(Some(other)) => {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "best-effort rejection notice before closing"
            )]
            let _ = Frame::ErrorReply {
                code: ErrorCode::Protocol,
                detail: format!("expected Hello, got {}", other.name()),
            }
            .write_to(&mut writer);
            return;
        }
        Ok(None) | Err(_) => return,
    }

    loop {
        match Frame::read_from(&mut reader) {
            Ok(Some(Frame::SubmitJob {
                policy,
                sets,
                ways,
                window,
                trace: TraceRef::Inline { total },
            })) => {
                let sub = Submission {
                    policy,
                    sets,
                    ways,
                    window,
                    total,
                };
                match handle_submit(shared, session, reader, writer, sub) {
                    Flow::Continue => {}
                    Flow::Close => return,
                }
            }
            Ok(Some(Frame::Goodbye)) | Ok(None) => return,
            // No wildcard: a new frame kind does not compile until it is
            // placed in one of these arms.
            Ok(Some(
                other @ (Frame::Hello { .. }
                | Frame::HelloAck { .. }
                | Frame::TraceChunk { .. }
                | Frame::TraceEnd
                | Frame::JobAccepted { .. }
                | Frame::Busy { .. }
                | Frame::WindowResult { .. }
                | Frame::JobDone { .. }
                | Frame::ErrorReply { .. }),
            )) => {
                // Wire-valid but out of place (a TraceChunk with no
                // pending submission, a server-side frame, a second
                // Hello). The stream is still frame-aligned, so report
                // and keep serving.
                let detail = format!("unexpected {} frame", other.name());
                if let Flow::Close = reply_error(writer, ErrorCode::Protocol, detail) {
                    return;
                }
            }
            Err(e) => {
                // Framing is broken (truncation, oversized prefix,
                // unknown kind, garbage body) — there is no way to
                // resynchronize, so answer if the socket still works and
                // close. The queue is untouched: nothing was in flight.
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "best-effort diagnosis on a broken stream"
                )]
                let _ = Frame::ErrorReply {
                    code: ErrorCode::Protocol,
                    detail: e.to_string(),
                }
                .write_to(&mut writer);
                return;
            }
        }
    }
}

/// Writes `frame` and keeps the session alive, unless the connection
/// itself is gone.
fn reply(writer: &mut TcpStream, frame: &Frame) -> Flow {
    if frame.write_to(writer).is_ok() {
        Flow::Continue
    } else {
        Flow::Close
    }
}

/// Replies with a typed error and keeps the session alive (unless the
/// connection itself is gone).
fn reply_error(writer: &mut TcpStream, code: ErrorCode, detail: String) -> Flow {
    reply(writer, &Frame::ErrorReply { code, detail })
}

/// Validates a submission, receives its trace, and either enqueues it
/// (then relays its frames until the final one) or answers `Busy`.
fn handle_submit(
    shared: &Arc<Shared>,
    session: u64,
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    sub: Submission,
) -> Flow {
    // Receive the trace before validating anything: an inline submission
    // has `TraceChunk* TraceEnd` already on the wire, and rejecting
    // without draining them would leave the stream misaligned for every
    // later request on this connection.
    let trace = match receive_inline(shared, reader, writer, sub.total) {
        Inline::Complete(bytes) => bytes,
        Inline::Reject(code, detail) => return reply_error(writer, code, detail),
        Inline::Close => return Flow::Close,
    };

    let llc = match CacheConfig::try_new(sub.sets as usize, sub.ways as usize) {
        Ok(llc) => llc,
        Err(e) => {
            return reply_error(
                writer,
                ErrorCode::BadGeometry,
                format!("invalid geometry sets={} ways={}: {e}", sub.sets, sub.ways),
            )
        }
    };

    // Validate the trace header before accepting, so a malformed trace
    // is a pre-acceptance error and the telemetry label can carry the
    // real instruction count.
    let meta = match read_header(&mut trace.as_slice()) {
        Ok(meta) => meta,
        Err(e) => return reply_error(writer, ErrorCode::BadTrace, e.to_string()),
    };
    if meta.count == 0 {
        return reply_error(
            writer,
            ErrorCode::BadTrace,
            "trace holds no records".to_owned(),
        );
    }

    let (events, job_events) = mpsc::channel();
    // The shutdown check, the depth check and the enqueue are one
    // critical section; every write happens after it.
    let decision = with_lock(&shared.queue, |q| {
        if shared.shutdown.load(Ordering::SeqCst) {
            return Decision::Shutdown;
        }
        if q.len() >= shared.queue_depth {
            return Decision::Busy;
        }
        let job = shared.next_job.fetch_add(1, Ordering::SeqCst);
        q.push_back(QueuedJob {
            job,
            session,
            label: format!("serve/s{session}-j{job}/{}", sub.policy),
            policy: sub.policy,
            llc,
            window: sub.window,
            trace,
            instructions: meta.count,
            events,
        });
        shared.queue_cv.notify_one();
        Decision::Accepted(job)
    });
    let job = match decision {
        Decision::Shutdown => {
            return reply_error(
                writer,
                ErrorCode::Shutdown,
                "server is shutting down".to_owned(),
            )
        }
        Decision::Busy => {
            let queue_depth = u32::try_from(shared.queue_depth).unwrap_or(u32::MAX);
            return reply(writer, &Frame::Busy { queue_depth });
        }
        Decision::Accepted(job) => job,
    };
    // Returning early drops `job_events`: the executor's later sends fail
    // and the job still completes.
    if let Flow::Close = reply(writer, &Frame::JobAccepted { job }) {
        return Flow::Close;
    }
    for event in job_events {
        let frame = match event {
            JobEvent::Window { index, misses } => Frame::WindowResult { job, index, misses },
            JobEvent::Done(last) => return reply(writer, &last),
        };
        if let Flow::Close = reply(writer, &frame) {
            return Flow::Close;
        }
    }
    // The channel closed without a final frame: shutdown dropped the job
    // before an executor took it.
    reply_error(
        writer,
        ErrorCode::Shutdown,
        "server is shutting down".to_owned(),
    )
}

/// Outcome of an inline trace transfer.
enum Inline {
    /// All declared bytes arrived.
    Complete(Vec<u8>),
    /// The transfer completed on the wire but the content is unusable;
    /// the session stays alive.
    Reject(ErrorCode, String),
    /// The connection broke or desynchronized mid-transfer.
    Close,
}

/// Receives `TraceChunk* TraceEnd` for a declared `total` byte count.
///
/// Oversized or over-declared transfers are drained (chunks read and
/// dropped) so the stream stays frame-aligned for the rejection reply.
fn receive_inline(
    shared: &Arc<Shared>,
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    total: u64,
) -> Inline {
    let too_large = total > shared.max_inline_bytes;
    let mut buf: Vec<u8> = Vec::new();
    let mut received: u64 = 0;
    loop {
        match Frame::read_from(reader) {
            Ok(Some(Frame::TraceChunk { bytes })) => {
                received = received.saturating_add(bytes.len() as u64);
                if !too_large && received <= total {
                    buf.extend_from_slice(&bytes);
                }
            }
            Ok(Some(Frame::TraceEnd)) => {
                if too_large {
                    return Inline::Reject(
                        ErrorCode::BadTrace,
                        format!(
                            "inline trace of {total} bytes exceeds the server limit of {} bytes",
                            shared.max_inline_bytes
                        ),
                    );
                }
                if received != total {
                    return Inline::Reject(
                        ErrorCode::BadTrace,
                        format!("inline transfer carried {received} of the declared {total} bytes"),
                    );
                }
                return Inline::Complete(buf);
            }
            Ok(Some(other)) => {
                // Anything else mid-transfer leaves the conversation
                // ambiguous; report and close.
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "best-effort diagnosis before closing"
                )]
                let _ = Frame::ErrorReply {
                    code: ErrorCode::Protocol,
                    detail: format!("expected TraceChunk or TraceEnd, got {}", other.name()),
                }
                .write_to(writer);
                return Inline::Close;
            }
            Ok(None) | Err(_) => return Inline::Close,
        }
    }
}
