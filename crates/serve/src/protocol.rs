//! The wire protocol: length-prefixed binary frames over a byte stream.
//!
//! ```text
//! frame   := payload_len(u32 LE) payload
//! payload := kind(u8) body
//! ```
//!
//! Bodies are built from the same primitives as the `.sdbt` container —
//! LEB128 varints via [`sdbp_traceio::format`] — plus varint-length-
//! prefixed strings and byte blobs, so the service plane and the trace
//! container share one integer codec. All multi-byte fixed-width values
//! are little-endian.
//!
//! A conversation is strictly request/response per connection:
//!
//! ```text
//! client                          server
//!   Hello{version, client}  ->
//!                           <-    HelloAck{version, server, queue_depth}
//!   SubmitJob{spec, geometry, trace}
//!   [TraceChunk* TraceEnd]  ->
//!                           <-    JobAccepted{job} | Busy | ErrorReply
//!                           <-    WindowResult{job, index, misses}*
//!                           <-    JobDone{job, ...}
//!   ... more SubmitJob ...
//!   Goodbye                 ->    (connection closes)
//! ```
//!
//! Version negotiation is part of the handshake: the server replies to a
//! `Hello` with an incompatible major version with
//! `ErrorReply{BadVersion}` and closes. Every decode failure is a typed
//! [`FrameError`]; nothing in this module panics on wire data.

use crate::error::FrameError;
use sdbp_traceio::format::{get_varint, put_varint};
use std::io::{Read, Write};

/// Protocol version this build speaks.
pub const PROTOCOL_VERSION: u32 = 1;

/// Largest frame payload a peer may send (1 MiB). A length prefix above
/// this is rejected as [`FrameError::Oversized`] before any allocation.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// How many raw trace bytes the client packs into one [`Frame::TraceChunk`].
///
/// Sized from `sdbp-repro trace info`'s per-chunk report: a default
/// `.sdbt` chunk (65 536 records at ~2.5 encoded bytes each) is ~160 KiB,
/// so one wire chunk carries a whole container chunk with headroom while
/// staying well under [`MAX_FRAME_LEN`].
pub const TRACE_CHUNK_BYTES: usize = 256 * 1024;

/// How a submitted job's trace reaches the server: always inline.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TraceRef {
    /// The client streams the `.sdbt` file image inline, as `total`
    /// bytes of [`Frame::TraceChunk`] payloads closed by a
    /// [`Frame::TraceEnd`].
    Inline {
        /// Total byte length of the `.sdbt` image that will follow.
        total: u64,
    },
}

/// Machine-readable category of a server [`Frame::ErrorReply`].
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ErrorCode {
    /// The client's protocol version is not supported.
    BadVersion,
    /// The policy spec did not parse or names an unknown policy.
    BadSpec,
    /// The cache geometry is invalid (sets not a power of two, ways
    /// outside 1..=16).
    BadGeometry,
    /// The submitted trace bytes are not a valid `.sdbt` stream.
    BadTrace,
    /// The client broke the frame sequence (e.g. `TraceChunk` without a
    /// pending inline submission).
    Protocol,
    /// The server is shutting down and did not run the job.
    Shutdown,
    /// The job failed inside the server (an isolated panic or i/o error).
    Internal,
}

impl ErrorCode {
    /// Wire encoding of the code. Byte 4 is retired (it was
    /// `bad-archive`) and is never reused.
    pub fn to_byte(self) -> u8 {
        match self {
            ErrorCode::BadVersion => 0,
            ErrorCode::BadSpec => 1,
            ErrorCode::BadGeometry => 2,
            ErrorCode::BadTrace => 3,
            ErrorCode::Protocol => 5,
            ErrorCode::Shutdown => 6,
            ErrorCode::Internal => 7,
        }
    }

    /// Decodes a wire byte; unknown codes are reported as `None`.
    pub fn from_byte(b: u8) -> Option<ErrorCode> {
        Some(match b {
            0 => ErrorCode::BadVersion,
            1 => ErrorCode::BadSpec,
            2 => ErrorCode::BadGeometry,
            3 => ErrorCode::BadTrace,
            5 => ErrorCode::Protocol,
            6 => ErrorCode::Shutdown,
            7 => ErrorCode::Internal,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ErrorCode::BadVersion => "bad-version",
            ErrorCode::BadSpec => "bad-spec",
            ErrorCode::BadGeometry => "bad-geometry",
            ErrorCode::BadTrace => "bad-trace",
            ErrorCode::Protocol => "protocol",
            ErrorCode::Shutdown => "shutdown",
            ErrorCode::Internal => "internal",
        };
        f.write_str(name)
    }
}

/// One protocol frame, either direction.
#[derive(Clone, PartialEq, Debug)]
pub enum Frame {
    /// Client opener: protocol version and a display name for telemetry.
    Hello {
        /// Protocol version the client speaks.
        version: u32,
        /// Client display name (telemetry label only).
        client: String,
    },
    /// Server handshake reply.
    HelloAck {
        /// Protocol version the server will use on this connection.
        version: u32,
        /// Server display name.
        server: String,
        /// Capacity of the server's bounded job queue (backpressure hint).
        queue_depth: u32,
    },
    /// One replay job: policy spec, LLC geometry, window size and the
    /// trace to replay.
    SubmitJob {
        /// Registry policy spec string, e.g. `lru` or `sampler:assoc=16`.
        policy: String,
        /// LLC sets (must be a power of two).
        sets: u32,
        /// LLC associativity.
        ways: u32,
        /// Accesses per incremental [`Frame::WindowResult`]; `0` disables
        /// window streaming (only the final [`Frame::JobDone`] is sent).
        window: u32,
        /// Where the trace comes from.
        trace: TraceRef,
    },
    /// A slice of the inline `.sdbt` image (client → server).
    TraceChunk {
        /// Raw trace-file bytes.
        bytes: Vec<u8>,
    },
    /// Terminates an inline trace transfer.
    TraceEnd,
    /// The job was queued; results will stream with this id.
    JobAccepted {
        /// Server-assigned job id, unique per server lifetime.
        job: u64,
    },
    /// Backpressure: the bounded job queue is full, try again later.
    Busy {
        /// The queue capacity that is currently saturated.
        queue_depth: u32,
    },
    /// One completed miss-count window, streamed while the replay runs.
    WindowResult {
        /// Job id from [`Frame::JobAccepted`].
        job: u64,
        /// Zero-based window index in stream order.
        index: u64,
        /// LLC misses in this window.
        misses: u64,
    },
    /// Final result of a job: the replay counters and timing-model IPC.
    JobDone {
        /// Job id from [`Frame::JobAccepted`].
        job: u64,
        /// Workload name from the trace header.
        workload: String,
        /// Instructions replayed.
        instructions: u64,
        /// LLC accesses replayed.
        accesses: u64,
        /// LLC hits.
        hits: u64,
        /// LLC misses.
        misses: u64,
        /// Number of windows streamed (0 when windowing was off).
        windows: u64,
        /// IPC from the timing model, as `f64::to_bits` (bit-exact on
        /// the wire; floats never round-trip through text).
        ipc_bits: u64,
    },
    /// The server refused or failed a request.
    ErrorReply {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
    /// Client is done; the server closes the connection.
    Goodbye,
}

const KIND_HELLO: u8 = 0x01;
const KIND_SUBMIT: u8 = 0x02;
const KIND_TRACE_CHUNK: u8 = 0x03;
const KIND_TRACE_END: u8 = 0x04;
const KIND_GOODBYE: u8 = 0x05;
const KIND_HELLO_ACK: u8 = 0x81;
const KIND_JOB_ACCEPTED: u8 = 0x82;
const KIND_BUSY: u8 = 0x83;
const KIND_WINDOW_RESULT: u8 = 0x84;
const KIND_JOB_DONE: u8 = 0x85;
const KIND_ERROR: u8 = 0x86;

/// The inline trace tag. Tag 0 is retired (it named a server-side
/// archive) and decodes as unknown; it is never reused.
const TRACE_REF_INLINE: u8 = 1;

impl Frame {
    /// Short frame name for diagnostics and protocol-violation errors.
    pub fn name(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "Hello",
            Frame::HelloAck { .. } => "HelloAck",
            Frame::SubmitJob { .. } => "SubmitJob",
            Frame::TraceChunk { .. } => "TraceChunk",
            Frame::TraceEnd => "TraceEnd",
            Frame::JobAccepted { .. } => "JobAccepted",
            Frame::Busy { .. } => "Busy",
            Frame::WindowResult { .. } => "WindowResult",
            Frame::JobDone { .. } => "JobDone",
            Frame::ErrorReply { .. } => "ErrorReply",
            Frame::Goodbye => "Goodbye",
        }
    }

    /// Serializes the frame payload (kind byte + body), without the
    /// length prefix.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Frame::Hello { version, client } => {
                out.push(KIND_HELLO);
                put_varint(&mut out, u64::from(*version));
                put_str(&mut out, client);
            }
            Frame::HelloAck {
                version,
                server,
                queue_depth,
            } => {
                out.push(KIND_HELLO_ACK);
                put_varint(&mut out, u64::from(*version));
                put_str(&mut out, server);
                put_varint(&mut out, u64::from(*queue_depth));
            }
            Frame::SubmitJob {
                policy,
                sets,
                ways,
                window,
                trace,
            } => {
                out.push(KIND_SUBMIT);
                put_str(&mut out, policy);
                put_varint(&mut out, u64::from(*sets));
                put_varint(&mut out, u64::from(*ways));
                put_varint(&mut out, u64::from(*window));
                let TraceRef::Inline { total } = trace;
                out.push(TRACE_REF_INLINE);
                put_varint(&mut out, *total);
            }
            Frame::TraceChunk { bytes } => {
                out.push(KIND_TRACE_CHUNK);
                out.extend_from_slice(bytes);
            }
            Frame::TraceEnd => out.push(KIND_TRACE_END),
            Frame::JobAccepted { job } => {
                out.push(KIND_JOB_ACCEPTED);
                put_varint(&mut out, *job);
            }
            Frame::Busy { queue_depth } => {
                out.push(KIND_BUSY);
                put_varint(&mut out, u64::from(*queue_depth));
            }
            Frame::WindowResult { job, index, misses } => {
                out.push(KIND_WINDOW_RESULT);
                put_varint(&mut out, *job);
                put_varint(&mut out, *index);
                put_varint(&mut out, *misses);
            }
            Frame::JobDone {
                job,
                workload,
                instructions,
                accesses,
                hits,
                misses,
                windows,
                ipc_bits,
            } => {
                out.push(KIND_JOB_DONE);
                put_varint(&mut out, *job);
                put_str(&mut out, workload);
                put_varint(&mut out, *instructions);
                put_varint(&mut out, *accesses);
                put_varint(&mut out, *hits);
                put_varint(&mut out, *misses);
                put_varint(&mut out, *windows);
                // ipc_bits must round-trip exactly: fixed-width, not varint
                // (a varint of f64 bits is usually *longer* anyway).
                out.extend_from_slice(&ipc_bits.to_le_bytes());
            }
            Frame::ErrorReply { code, detail } => {
                out.push(KIND_ERROR);
                out.push(code.to_byte());
                put_str(&mut out, detail);
            }
            Frame::Goodbye => out.push(KIND_GOODBYE),
        }
        out
    }

    /// Decodes one frame payload (kind byte + body, no length prefix).
    ///
    /// # Errors
    ///
    /// [`FrameError::Empty`], [`FrameError::UnknownKind`],
    /// [`FrameError::Malformed`] (including trailing bytes after the
    /// body) or [`FrameError::BadUtf8`]. Never panics.
    pub fn decode(payload: &[u8]) -> Result<Frame, FrameError> {
        let Some((&kind, body)) = payload.split_first() else {
            return Err(FrameError::Empty);
        };
        Frame::decode_body(kind, body)
    }

    /// [`decode`](Frame::decode) of a payload already split into its
    /// kind byte and body.
    fn decode_body(kind: u8, body: &[u8]) -> Result<Frame, FrameError> {
        let mut pos = 0usize;
        let frame = match kind {
            KIND_HELLO => Frame::Hello {
                version: get_u32(body, &mut pos, "Hello.version")?,
                client: get_str(body, &mut pos, "Hello.client")?,
            },
            KIND_HELLO_ACK => Frame::HelloAck {
                version: get_u32(body, &mut pos, "HelloAck.version")?,
                server: get_str(body, &mut pos, "HelloAck.server")?,
                queue_depth: get_u32(body, &mut pos, "HelloAck.queue_depth")?,
            },
            KIND_SUBMIT => {
                let policy = get_str(body, &mut pos, "SubmitJob.policy")?;
                let sets = get_u32(body, &mut pos, "SubmitJob.sets")?;
                let ways = get_u32(body, &mut pos, "SubmitJob.ways")?;
                let window = get_u32(body, &mut pos, "SubmitJob.window")?;
                let tag = get_u8(body, &mut pos, "SubmitJob.trace_tag")?;
                let trace = match tag {
                    TRACE_REF_INLINE => TraceRef::Inline {
                        total: get_u64(body, &mut pos, "SubmitJob.total")?,
                    },
                    _ => {
                        return Err(FrameError::Malformed {
                            context: "SubmitJob.trace_tag",
                        })
                    }
                };
                Frame::SubmitJob {
                    policy,
                    sets,
                    ways,
                    window,
                    trace,
                }
            }
            KIND_TRACE_CHUNK => {
                pos = body.len();
                Frame::TraceChunk {
                    bytes: body.to_vec(),
                }
            }
            KIND_TRACE_END => Frame::TraceEnd,
            KIND_GOODBYE => Frame::Goodbye,
            KIND_JOB_ACCEPTED => Frame::JobAccepted {
                job: get_u64(body, &mut pos, "JobAccepted.job")?,
            },
            KIND_BUSY => Frame::Busy {
                queue_depth: get_u32(body, &mut pos, "Busy.queue_depth")?,
            },
            KIND_WINDOW_RESULT => Frame::WindowResult {
                job: get_u64(body, &mut pos, "WindowResult.job")?,
                index: get_u64(body, &mut pos, "WindowResult.index")?,
                misses: get_u64(body, &mut pos, "WindowResult.misses")?,
            },
            KIND_JOB_DONE => Frame::JobDone {
                job: get_u64(body, &mut pos, "JobDone.job")?,
                workload: get_str(body, &mut pos, "JobDone.workload")?,
                instructions: get_u64(body, &mut pos, "JobDone.instructions")?,
                accesses: get_u64(body, &mut pos, "JobDone.accesses")?,
                hits: get_u64(body, &mut pos, "JobDone.hits")?,
                misses: get_u64(body, &mut pos, "JobDone.misses")?,
                windows: get_u64(body, &mut pos, "JobDone.windows")?,
                ipc_bits: get_fixed_u64(body, &mut pos, "JobDone.ipc_bits")?,
            },
            KIND_ERROR => {
                let raw = get_u8(body, &mut pos, "ErrorReply.code")?;
                let code = ErrorCode::from_byte(raw).ok_or(FrameError::Malformed {
                    context: "ErrorReply.code",
                })?;
                Frame::ErrorReply {
                    code,
                    detail: get_str(body, &mut pos, "ErrorReply.detail")?,
                }
            }
            _ => return Err(FrameError::UnknownKind { kind }),
        };
        if pos != body.len() {
            return Err(FrameError::Malformed {
                context: "trailing bytes after frame body",
            });
        }
        Ok(frame)
    }

    /// Writes the frame (length prefix + payload) to `w`.
    ///
    /// # Errors
    ///
    /// [`FrameError::Oversized`] if the encoded payload exceeds
    /// [`MAX_FRAME_LEN`] (only possible for a `TraceChunk` built larger
    /// than [`TRACE_CHUNK_BYTES`]); otherwise propagates i/o errors.
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<(), FrameError> {
        let payload = self.encode();
        w.write_all(&length_prefix(payload.len())?)?;
        w.write_all(&payload)?;
        Ok(())
    }

    /// Reads one frame from `r`.
    ///
    /// Returns `Ok(None)` on a clean end-of-stream *between* frames; a
    /// stream that ends inside a frame is [`FrameError::Truncated`].
    ///
    /// # Errors
    ///
    /// Any [`FrameError`]; oversized length prefixes are rejected before
    /// the payload is allocated.
    pub fn read_from<R: Read>(r: &mut R) -> Result<Option<Frame>, FrameError> {
        let mut len_buf = [0u8; 4];
        match read_exact_or_start(r, &mut len_buf)? {
            ReadStart::Eof => return Ok(None),
            ReadStart::Full => {}
        }
        let len = u32::from_le_bytes(len_buf);
        if len == 0 {
            return Err(FrameError::Empty);
        }
        if len > MAX_FRAME_LEN {
            return Err(FrameError::Oversized {
                len,
                max: MAX_FRAME_LEN,
            });
        }
        // The kind byte first, so a chunk's body is read straight into
        // the `Vec` the frame keeps.
        let mut kind = 0u8;
        read_payload(r, std::slice::from_mut(&mut kind))?;
        let mut body = vec![0u8; (len - 1) as usize];
        read_payload(r, &mut body)?;
        if kind == KIND_TRACE_CHUNK {
            return Ok(Some(Frame::TraceChunk { bytes: body }));
        }
        Frame::decode_body(kind, &body).map(Some)
    }
}

/// Writes one [`Frame::TraceChunk`] carrying `bytes` without copying them
/// into a frame first; the wire bytes equal those of
/// `Frame::TraceChunk { bytes: bytes.to_vec() }.write_to(w)`.
///
/// # Errors
///
/// [`FrameError::Oversized`] if `bytes` does not fit one frame
/// ([`TRACE_CHUNK_BYTES`] always does); otherwise propagates i/o errors.
pub fn write_trace_chunk<W: Write>(w: &mut W, bytes: &[u8]) -> Result<(), FrameError> {
    let [a, b, c, d] = length_prefix(bytes.len().saturating_add(1))?;
    w.write_all(&[a, b, c, d, KIND_TRACE_CHUNK])?;
    w.write_all(bytes)?;
    Ok(())
}

/// The length prefix of a `payload_len`-byte payload, or
/// [`FrameError::Oversized`] past [`MAX_FRAME_LEN`].
fn length_prefix(payload_len: usize) -> Result<[u8; 4], FrameError> {
    u32::try_from(payload_len)
        .ok()
        .filter(|&l| l <= MAX_FRAME_LEN)
        .map(u32::to_le_bytes)
        .ok_or(FrameError::Oversized {
            len: u32::try_from(payload_len).unwrap_or(u32::MAX),
            max: MAX_FRAME_LEN,
        })
}

/// Fills `buf` from the frame payload; a stream that ends first is
/// [`FrameError::Truncated`].
fn read_payload<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), FrameError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            FrameError::Truncated {
                context: "frame payload",
            }
        } else {
            FrameError::Io(e)
        }
    })
}

/// Outcome of reading the 4-byte length prefix.
enum ReadStart {
    /// The stream was already closed — no frame follows.
    Eof,
    /// The prefix was fully read.
    Full,
}

/// Reads the length prefix, distinguishing a clean close (zero bytes)
/// from a mid-prefix truncation.
fn read_exact_or_start<R: Read>(r: &mut R, buf: &mut [u8; 4]) -> Result<ReadStart, FrameError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        let Some(dst) = buf.get_mut(filled..) else {
            break;
        };
        match r.read(dst) {
            Ok(0) if filled == 0 => return Ok(ReadStart::Eof),
            Ok(0) => {
                return Err(FrameError::Truncated {
                    context: "frame length prefix",
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(ReadStart::Full)
}

/// Appends a varint-length-prefixed UTF-8 string.
fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn get_u64(buf: &[u8], pos: &mut usize, context: &'static str) -> Result<u64, FrameError> {
    get_varint(buf, pos).ok_or(FrameError::Malformed { context })
}

fn get_u32(buf: &[u8], pos: &mut usize, context: &'static str) -> Result<u32, FrameError> {
    u32::try_from(get_u64(buf, pos, context)?).map_err(|_| FrameError::Malformed { context })
}

fn get_u8(buf: &[u8], pos: &mut usize, context: &'static str) -> Result<u8, FrameError> {
    let b = *buf.get(*pos).ok_or(FrameError::Malformed { context })?;
    *pos += 1;
    Ok(b)
}

/// Reads a fixed-width little-endian `u64` (used for `f64` bit patterns,
/// which must not go through the varint path).
fn get_fixed_u64(buf: &[u8], pos: &mut usize, context: &'static str) -> Result<u64, FrameError> {
    let end = pos
        .checked_add(8)
        .ok_or(FrameError::Malformed { context })?;
    let bytes = buf
        .get(*pos..end)
        .ok_or(FrameError::Malformed { context })?;
    let arr: [u8; 8] = bytes
        .try_into()
        .map_err(|_| FrameError::Malformed { context })?;
    *pos = end;
    Ok(u64::from_le_bytes(arr))
}

fn get_str(buf: &[u8], pos: &mut usize, context: &'static str) -> Result<String, FrameError> {
    let len = usize::try_from(get_u64(buf, pos, context)?)
        .map_err(|_| FrameError::Malformed { context })?;
    let end = pos
        .checked_add(len)
        .ok_or(FrameError::Malformed { context })?;
    let bytes = buf
        .get(*pos..end)
        .ok_or(FrameError::Malformed { context })?;
    *pos = end;
    String::from_utf8(bytes.to_vec()).map_err(|_| FrameError::BadUtf8 { context })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::io::Cursor;

    /// Number of `Frame` variants, i.e. of arms in [`frame_variant`].
    const FRAME_VARIANTS: usize = 11;

    /// Position of `f`'s variant. No wildcard: a new `Frame` variant does
    /// not compile until it is numbered here, and
    /// `every_variant_has_an_exemplar_and_no_other_kind_decodes` then
    /// fails until [`every_frame`] holds an exemplar of it.
    fn frame_variant(f: &Frame) -> usize {
        match f {
            Frame::Hello { .. } => 0,
            Frame::HelloAck { .. } => 1,
            Frame::SubmitJob { .. } => 2,
            Frame::TraceChunk { .. } => 3,
            Frame::TraceEnd => 4,
            Frame::JobAccepted { .. } => 5,
            Frame::Busy { .. } => 6,
            Frame::WindowResult { .. } => 7,
            Frame::JobDone { .. } => 8,
            Frame::ErrorReply { .. } => 9,
            Frame::Goodbye => 10,
        }
    }

    /// Every `ErrorCode`, in the order [`code_variant`] numbers them.
    const EVERY_CODE: [ErrorCode; 7] = [
        ErrorCode::BadVersion,
        ErrorCode::BadSpec,
        ErrorCode::BadGeometry,
        ErrorCode::BadTrace,
        ErrorCode::Protocol,
        ErrorCode::Shutdown,
        ErrorCode::Internal,
    ];

    /// Position of `c` in [`EVERY_CODE`]. No wildcard: a new code does
    /// not compile until it is numbered here.
    fn code_variant(c: ErrorCode) -> usize {
        match c {
            ErrorCode::BadVersion => 0,
            ErrorCode::BadSpec => 1,
            ErrorCode::BadGeometry => 2,
            ErrorCode::BadTrace => 3,
            ErrorCode::Protocol => 4,
            ErrorCode::Shutdown => 5,
            ErrorCode::Internal => 6,
        }
    }

    /// The wire tag of each `TraceRef` variant (no wildcard).
    fn trace_tag(t: &TraceRef) -> u8 {
        match t {
            TraceRef::Inline { .. } => TRACE_REF_INLINE,
        }
    }

    fn every_frame() -> Vec<Frame> {
        vec![
            Frame::Hello {
                version: PROTOCOL_VERSION,
                client: "sdbp-repro".into(),
            },
            Frame::HelloAck {
                version: 1,
                server: "sdbp-serve".into(),
                queue_depth: 16,
            },
            Frame::SubmitJob {
                policy: "sampler:assoc=16".into(),
                sets: 2048,
                ways: 16,
                window: 10_000,
                trace: TraceRef::Inline { total: 0 },
            },
            Frame::SubmitJob {
                policy: "lru".into(),
                sets: 256,
                ways: 8,
                window: 0,
                trace: TraceRef::Inline {
                    total: u64::from(u32::MAX) + 17,
                },
            },
            Frame::TraceChunk {
                bytes: vec![0u8, 1, 2, 254, 255],
            },
            Frame::TraceChunk { bytes: Vec::new() },
            Frame::TraceEnd,
            Frame::JobAccepted { job: u64::MAX },
            Frame::Busy { queue_depth: 1 },
            Frame::WindowResult {
                job: 3,
                index: 12_345,
                misses: 678,
            },
            Frame::JobDone {
                job: 3,
                workload: "456.hmmer".into(),
                instructions: 8_000_000,
                accesses: 123_456,
                hits: 100_000,
                misses: 23_456,
                windows: 13,
                ipc_bits: 1.234_567_f64.to_bits(),
            },
            Frame::ErrorReply {
                code: ErrorCode::BadSpec,
                detail: "unknown policy 'x'".into(),
            },
            Frame::Goodbye,
        ]
    }

    #[test]
    fn every_variant_has_an_exemplar_and_no_other_kind_decodes() {
        let frames = every_frame();
        let variants: BTreeSet<usize> = frames.iter().map(frame_variant).collect();
        assert_eq!(
            variants,
            (0..FRAME_VARIANTS).collect(),
            "a Frame variant lacks an exemplar"
        );
        let kinds: BTreeSet<u8> = frames
            .iter()
            .filter_map(|f| f.encode().first().copied())
            .collect();
        for kind in (0..=u8::MAX).filter(|k| !kinds.contains(k)) {
            match Frame::decode(&[kind]) {
                Err(FrameError::UnknownKind { kind: k }) if k == kind => {}
                other => panic!("kind byte {kind:#04x} has no exemplar, decodes to {other:?}"),
            }
        }
    }

    #[test]
    fn every_trace_tag_has_an_exemplar_and_no_other_tag_decodes() {
        let tags: BTreeSet<u8> = every_frame()
            .iter()
            .filter_map(|f| match f {
                Frame::SubmitJob { trace, .. } => Some(trace_tag(trace)),
                _ => None,
            })
            .collect();
        let every_tag = BTreeSet::from([TRACE_REF_INLINE]);
        assert_eq!(tags, every_tag, "a TraceRef variant lacks an exemplar");
        let mut prefix = vec![KIND_SUBMIT];
        put_str(&mut prefix, "lru");
        [256, 16, 0]
            .into_iter()
            .for_each(|v| put_varint(&mut prefix, v));
        for tag in (0..=u8::MAX).filter(|t| !tags.contains(t)) {
            let payload = [prefix.as_slice(), &[tag, 0]].concat();
            assert!(matches!(
                Frame::decode(&payload),
                Err(FrameError::Malformed {
                    context: "SubmitJob.trace_tag"
                })
            ));
        }
    }

    #[test]
    fn every_frame_round_trips_via_encode_decode() {
        for frame in every_frame() {
            let payload = frame.encode();
            let back = Frame::decode(&payload).expect("decodes");
            assert_eq!(back, frame, "{}", frame.name());
        }
    }

    #[test]
    fn every_frame_round_trips_via_stream() {
        let frames = every_frame();
        let mut buf = Vec::new();
        for f in &frames {
            f.write_to(&mut buf).expect("writes");
        }
        let mut cursor = Cursor::new(buf);
        for want in &frames {
            let got = Frame::read_from(&mut cursor)
                .expect("reads")
                .expect("a frame");
            assert_eq!(&got, want);
        }
        assert!(Frame::read_from(&mut cursor).expect("clean eof").is_none());
    }

    #[test]
    fn clean_eof_between_frames_is_none_mid_frame_is_truncated() {
        let mut buf = Vec::new();
        Frame::Goodbye.write_to(&mut buf).expect("writes");
        // Clean close right at a frame boundary.
        let mut c = Cursor::new(buf.clone());
        assert!(Frame::read_from(&mut c).expect("frame").is_some());
        assert!(Frame::read_from(&mut c).expect("eof").is_none());
        // Cut inside the length prefix.
        let mut c = Cursor::new(buf.get(..2).expect("slice").to_vec());
        assert!(matches!(
            Frame::read_from(&mut c),
            Err(FrameError::Truncated {
                context: "frame length prefix"
            })
        ));
        // Cut inside the payload.
        let mut longer = Vec::new();
        Frame::JobAccepted { job: 300 }
            .write_to(&mut longer)
            .expect("writes");
        longer.pop();
        assert!(matches!(
            Frame::read_from(&mut Cursor::new(longer)),
            Err(FrameError::Truncated {
                context: "frame payload"
            })
        ));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        match Frame::read_from(&mut Cursor::new(buf)) {
            Err(FrameError::Oversized { len, max }) => {
                assert_eq!(len, MAX_FRAME_LEN + 1);
                assert_eq!(max, MAX_FRAME_LEN);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn zero_length_and_unknown_kind_are_typed_errors() {
        let mut zero = Vec::new();
        zero.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            Frame::read_from(&mut Cursor::new(zero)),
            Err(FrameError::Empty)
        ));
        assert!(matches!(Frame::decode(&[]), Err(FrameError::Empty)));
        assert!(matches!(
            Frame::decode(&[0x7f, 1, 2]),
            Err(FrameError::UnknownKind { kind: 0x7f })
        ));
    }

    #[test]
    fn trailing_bytes_and_short_bodies_are_malformed() {
        let mut payload = Frame::JobAccepted { job: 7 }.encode();
        payload.push(0xaa);
        assert!(matches!(
            Frame::decode(&payload),
            Err(FrameError::Malformed {
                context: "trailing bytes after frame body"
            })
        ));
        let payload = Frame::Busy { queue_depth: 300 }.encode();
        let short = payload.get(..payload.len() - 1).expect("slice");
        assert!(matches!(
            Frame::decode(short),
            Err(FrameError::Malformed {
                context: "Busy.queue_depth"
            })
        ));
    }

    #[test]
    fn bad_utf8_and_bad_error_code_are_typed() {
        // Hello with a non-UTF-8 client name.
        let mut payload = vec![KIND_HELLO];
        put_varint(&mut payload, 1);
        put_varint(&mut payload, 2);
        payload.extend_from_slice(&[0xff, 0xfe]);
        assert!(matches!(
            Frame::decode(&payload),
            Err(FrameError::BadUtf8 {
                context: "Hello.client"
            })
        ));
        // ErrorReply with an unknown code byte: 4 is the retired
        // `bad-archive` code.
        for code in [4, 0xee] {
            let mut payload = vec![KIND_ERROR, code];
            put_varint(&mut payload, 0);
            assert!(matches!(
                Frame::decode(&payload),
                Err(FrameError::Malformed {
                    context: "ErrorReply.code"
                })
            ));
        }
    }

    #[test]
    fn string_length_never_overreads() {
        // A string claiming more bytes than the body holds.
        let mut payload = vec![KIND_HELLO];
        put_varint(&mut payload, 1);
        put_varint(&mut payload, 1_000_000);
        payload.extend_from_slice(b"short");
        assert!(matches!(
            Frame::decode(&payload),
            Err(FrameError::Malformed {
                context: "Hello.client"
            })
        ));
    }

    #[test]
    fn error_codes_round_trip_and_no_other_byte_decodes() {
        for (i, code) in EVERY_CODE.into_iter().enumerate() {
            assert_eq!(code_variant(code), i, "EVERY_CODE is out of order");
            assert_eq!(ErrorCode::from_byte(code.to_byte()), Some(code));
            assert!(!code.to_string().is_empty());
        }
        let bytes: BTreeSet<u8> = EVERY_CODE.iter().map(|c| c.to_byte()).collect();
        for b in (0..=u8::MAX).filter(|b| !bytes.contains(b)) {
            assert_eq!(
                ErrorCode::from_byte(b),
                None,
                "code byte {b} decodes but is not listed"
            );
        }
    }

    #[test]
    fn trace_chunk_bound_fits_the_frame_limit() {
        assert!(u32::try_from(TRACE_CHUNK_BYTES).expect("fits u32") < MAX_FRAME_LEN);
        let frame = Frame::TraceChunk {
            bytes: vec![0xabu8; TRACE_CHUNK_BYTES],
        };
        let mut buf = Vec::new();
        frame.write_to(&mut buf).expect("a full chunk frame fits");
        let back = Frame::read_from(&mut Cursor::new(buf))
            .expect("reads")
            .expect("frame");
        assert_eq!(back, frame);
    }

    #[test]
    fn oversized_writes_are_refused() {
        let frame = Frame::TraceChunk {
            bytes: vec![0u8; (MAX_FRAME_LEN as usize) + 1],
        };
        let mut buf = Vec::new();
        assert!(matches!(
            frame.write_to(&mut buf),
            Err(FrameError::Oversized { .. })
        ));
        assert!(buf.is_empty(), "nothing may be written for a refused frame");
        let mut buf = Vec::new();
        assert!(matches!(
            write_trace_chunk(&mut buf, &vec![0u8; MAX_FRAME_LEN as usize]),
            Err(FrameError::Oversized { .. })
        ));
        assert!(buf.is_empty(), "nothing may be written for a refused chunk");
    }

    #[test]
    fn borrowed_chunk_writer_emits_the_owned_frame_bytes() {
        for len in [0, 1, TRACE_CHUNK_BYTES] {
            let bytes: Vec<u8> = (0..=250u8).cycle().take(len).collect();
            let mut borrowed = Vec::new();
            write_trace_chunk(&mut borrowed, &bytes).expect("borrowed chunk writes");
            let mut owned = Vec::new();
            Frame::TraceChunk {
                bytes: bytes.clone(),
            }
            .write_to(&mut owned)
            .expect("owned chunk writes");
            assert_eq!(borrowed, owned, "{len}-byte chunk");
            let back = Frame::read_from(&mut Cursor::new(borrowed))
                .expect("reads")
                .expect("frame");
            assert_eq!(back, Frame::TraceChunk { bytes }, "{len}-byte chunk");
        }
    }

    #[test]
    fn ipc_bits_round_trip_exactly() {
        for ipc in [
            0.0f64,
            1.0,
            0.333_333_333_333_333_3,
            f64::MAX,
            f64::MIN_POSITIVE,
        ] {
            let frame = Frame::JobDone {
                job: 1,
                workload: "w".into(),
                instructions: 1,
                accesses: 1,
                hits: 1,
                misses: 0,
                windows: 0,
                ipc_bits: ipc.to_bits(),
            };
            match Frame::decode(&frame.encode()).expect("decodes") {
                Frame::JobDone { ipc_bits, .. } => {
                    assert_eq!(f64::from_bits(ipc_bits), ipc);
                }
                other => panic!("wrong frame {other:?}"),
            }
        }
    }
}
