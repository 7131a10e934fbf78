//! Typed errors for the service plane.
//!
//! Everything that can go wrong on the wire — a short read, an
//! implausible length prefix, an unknown frame kind, a payload that does
//! not parse — maps to a distinct [`FrameError`] variant, mirroring the
//! `TraceIoError` taxonomy of `sdbp-traceio`: the session layer reports
//! *what* a peer got wrong and stays alive, it never panics.

use std::fmt;

/// Why a wire frame could not be read, written or decoded.
#[derive(Debug)]
pub enum FrameError {
    /// An underlying socket or stream error.
    Io(std::io::Error),
    /// The stream ended in the middle of a frame (a clean close *between*
    /// frames is not an error; readers report it as `None`).
    Truncated {
        /// Which structure was being read when the bytes ran out.
        context: &'static str,
    },
    /// The length prefix exceeds the protocol's frame-size bound — the
    /// peer is broken or malicious, and honoring the length would let it
    /// make us allocate arbitrary memory.
    Oversized {
        /// Length the prefix claimed.
        len: u32,
        /// Largest payload the protocol allows.
        max: u32,
    },
    /// A zero-length frame, which no frame kind encodes to.
    Empty,
    /// The frame kind byte is not one this protocol version defines.
    UnknownKind {
        /// The kind byte found.
        kind: u8,
    },
    /// The frame kind was recognised but its body did not parse.
    Malformed {
        /// Which frame and field failed.
        context: &'static str,
    },
    /// A string field was not valid UTF-8.
    BadUtf8 {
        /// Which field held the bytes.
        context: &'static str,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "wire i/o failed: {e}"),
            FrameError::Truncated { context } => {
                write!(f, "connection closed mid-frame while reading {context}")
            }
            FrameError::Oversized { len, max } => {
                write!(
                    f,
                    "frame length {len} exceeds the {max}-byte protocol limit"
                )
            }
            FrameError::Empty => write!(f, "zero-length frame"),
            FrameError::UnknownKind { kind } => {
                write!(f, "unknown frame kind {kind:#04x}")
            }
            FrameError::Malformed { context } => {
                write!(f, "malformed frame body: {context}")
            }
            FrameError::BadUtf8 { context } => {
                write!(f, "non-UTF-8 string in {context}")
            }
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Why a client-side operation against the service failed.
#[derive(Debug)]
pub enum ServeError {
    /// The wire itself failed (socket error, corrupt frame, ...).
    Frame(FrameError),
    /// The server reported an error frame.
    Remote {
        /// Machine-readable error category from the server.
        code: crate::protocol::ErrorCode,
        /// Human-readable detail from the server.
        detail: String,
    },
    /// The peer sent a frame that is valid on the wire but wrong for the
    /// current point in the conversation.
    Protocol {
        /// What the state machine was waiting for.
        expected: &'static str,
        /// What arrived instead.
        got: &'static str,
    },
    /// The peer speaks an incompatible protocol version.
    Version {
        /// Version we offered.
        ours: u32,
        /// Version the peer requires.
        theirs: u32,
    },
    /// A local (non-wire) failure, e.g. reading the trace file to submit.
    Local(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Frame(e) => write!(f, "{e}"),
            ServeError::Remote { code, detail } => {
                write!(f, "server error ({code}): {detail}")
            }
            ServeError::Protocol { expected, got } => {
                write!(f, "protocol violation: expected {expected}, got {got}")
            }
            ServeError::Version { ours, theirs } => {
                write!(
                    f,
                    "protocol version mismatch: we speak v{ours}, peer requires v{theirs}"
                )
            }
            ServeError::Local(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FrameError> for ServeError {
    fn from(e: FrameError) -> Self {
        ServeError::Frame(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ErrorCode;

    #[test]
    fn display_names_the_failure() {
        let cases: Vec<(FrameError, &str)> = vec![
            (
                FrameError::Truncated {
                    context: "frame payload",
                },
                "frame payload",
            ),
            (
                FrameError::Oversized {
                    len: 1 << 30,
                    max: 1 << 20,
                },
                "protocol limit",
            ),
            (FrameError::Empty, "zero-length"),
            (FrameError::UnknownKind { kind: 0x7f }, "0x7f"),
            (
                FrameError::Malformed {
                    context: "Hello.version",
                },
                "Hello.version",
            ),
            (
                FrameError::BadUtf8 {
                    context: "SubmitJob.policy",
                },
                "SubmitJob.policy",
            ),
        ];
        for (err, needle) in cases {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn serve_error_wraps_and_describes() {
        let e = ServeError::from(FrameError::Empty);
        assert!(e.to_string().contains("zero-length"));
        let e = ServeError::Remote {
            code: ErrorCode::BadSpec,
            detail: "no such policy".into(),
        };
        assert!(e.to_string().contains("no such policy"));
        let e = ServeError::Version { ours: 1, theirs: 9 };
        assert!(e.to_string().contains("v9"));
        let e = ServeError::Protocol {
            expected: "HelloAck",
            got: "Busy",
        };
        assert!(e.to_string().contains("HelloAck"));
    }
}
