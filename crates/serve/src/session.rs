//! Per-connection session layer: handshake, request parsing, inline
//! trace transfer, and the enqueue/backpressure decision.
//!
//! A session owns the read half of its connection and parses one request
//! at a time. While a job runs, the session parks on its [`JobGate`];
//! the executor writes the result frames directly, so the connection
//! never sees interleaved writers. Peer mistakes are answered with typed
//! `ErrorReply` frames where the stream is still in sync, and by closing
//! the connection where it cannot be (framing corruption, a wrong frame
//! mid-transfer). Nothing a client sends can poison a queue slot: a job
//! is enqueued only after its submission — including every inline trace
//! byte — has been received and validated.

use crate::lock_clean;
use crate::protocol::{ErrorCode, Frame, TraceRef, PROTOCOL_VERSION};
use crate::server::{JobGate, QueuedJob, Shared};
use sdbp_cache::CacheConfig;
use sdbp_traceio::TraceReader;
use std::io::{BufReader, Cursor};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Whether the session loop keeps serving after handling a request.
enum Flow {
    Continue,
    Close,
}

/// A parsed `SubmitJob` frame.
struct Submission {
    policy: String,
    sets: u32,
    ways: u32,
    window: u32,
    trace: TraceRef,
}

/// Runs one connection to completion. Never panics; every exit path
/// leaves the shared queue consistent.
pub(crate) fn run_session(shared: &Arc<Shared>, stream: TcpStream, session: u64) {
    #[expect(
        clippy::let_underscore_must_use,
        reason = "disabling Nagle is a latency hint; a socket that refuses it still carries frames"
    )]
    let _ = stream.set_nodelay(true);
    let Ok(mut writer) = stream.try_clone() else { return };
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
            Ok(Some(Frame::SubmitJob { policy, sets, ways, window, trace })) => {
                let sub = Submission { policy, sets, ways, window, trace };
                match handle_submit(shared, session, reader, writer, sub) {
                    Flow::Continue => {}
                    Flow::Close => return,
                }
            }
            Ok(Some(Frame::Goodbye)) | Ok(None) => return,
            Ok(Some(other)) => {
                // Wire-valid but out of place (a TraceChunk with no
                // pending submission, a server-side frame, a second
                // Hello). The stream is still frame-aligned, so report
                // and keep serving.
                let reply = Frame::ErrorReply {
                    code: ErrorCode::Protocol,
                    detail: format!("unexpected {} frame", other.name()),
                };
                if reply.write_to(&mut writer).is_err() {
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

/// Replies with a typed error and keeps the session alive (unless the
/// connection itself is gone).
fn reply_error(writer: &mut TcpStream, code: ErrorCode, detail: String) -> Flow {
    let reply = Frame::ErrorReply { code, detail };
    if reply.write_to(writer).is_ok() {
        Flow::Continue
    } else {
        Flow::Close
    }
}

/// Validates a submission, receives its trace, and either enqueues it
/// (then parks until the executor finishes) or answers `Busy`.
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
    let (trace, source) = match sub.trace {
        TraceRef::Archive { name } => {
            if name.is_empty() || name.contains('/') || name.contains('\\') || name.contains("..")
            {
                return reply_error(
                    writer,
                    ErrorCode::BadArchive,
                    format!("archive name '{name}' must be a bare file name"),
                );
            }
            let Some(dir) = &shared.trace_dir else {
                return reply_error(
                    writer,
                    ErrorCode::BadArchive,
                    "server was started without a trace directory".to_owned(),
                );
            };
            let path = dir.join(&name);
            match std::fs::read(&path) {
                Ok(bytes) => (bytes, format!("file:{}", path.display())),
                Err(e) => {
                    return reply_error(writer, ErrorCode::BadArchive, format!("{name}: {e}"))
                }
            }
        }
        TraceRef::Inline { total } => match receive_inline(shared, reader, writer, total) {
            Inline::Complete(bytes) => (bytes, "wire:inline".to_owned()),
            Inline::Reject(code, detail) => return reply_error(writer, code, detail),
            Inline::Close => return Flow::Close,
        },
    };

    let sets = sub.sets as usize;
    let ways = sub.ways as usize;
    if sets == 0 || !sets.is_power_of_two() || ways == 0 {
        return reply_error(
            writer,
            ErrorCode::BadGeometry,
            format!(
                "invalid geometry sets={} ways={}: sets must be a power of two, ways >= 1",
                sub.sets, sub.ways
            ),
        );
    }
    let llc = CacheConfig { sets, ways };

    // Validate the trace header before accepting, so a malformed trace
    // is a pre-acceptance error and the telemetry label can carry the
    // real instruction count.
    let meta = match TraceReader::new(Cursor::new(trace.as_slice())) {
        Ok(r) => r.meta().clone(),
        Err(e) => return reply_error(writer, ErrorCode::BadTrace, e.to_string()),
    };
    if meta.count == 0 {
        return reply_error(writer, ErrorCode::BadTrace, "trace holds no records".to_owned());
    }

    let gate = Arc::new(JobGate::default());
    {
        // One lock scope makes the depth check, the acceptance reply and
        // the enqueue atomic: an executor cannot observe the job (and
        // start writing result frames) before JobAccepted is on the wire.
        let mut q = lock_clean(&shared.queue);
        if shared.shutdown.load(Ordering::SeqCst) {
            drop(q);
            return reply_error(
                writer,
                ErrorCode::Shutdown,
                "server is shutting down".to_owned(),
            );
        }
        if q.len() >= shared.queue_depth {
            drop(q);
            let busy = Frame::Busy {
                queue_depth: u32::try_from(shared.queue_depth).unwrap_or(u32::MAX),
            };
            return if busy.write_to(writer).is_ok() { Flow::Continue } else { Flow::Close };
        }
        let job = shared.next_job.fetch_add(1, Ordering::SeqCst);
        let Ok(job_stream) = writer.try_clone() else {
            return Flow::Close;
        };
        let accepted = Frame::JobAccepted { job };
        if accepted.write_to(writer).is_err() {
            return Flow::Close;
        }
        q.push_back(QueuedJob {
            job,
            label: format!("serve/s{session}-j{job}/{}", sub.policy),
            policy: sub.policy,
            llc,
            window: sub.window,
            trace,
            instructions: meta.count,
            source,
            stream: job_stream,
            gate: Arc::clone(&gate),
        });
        shared.queue_cv.notify_one();
    }
    gate.wait();
    Flow::Continue
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
