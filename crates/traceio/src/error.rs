//! The typed error taxonomy for trace I/O.
//!
//! Every way a trace file can be unusable — missing, foreign, written by
//! a newer tool, cut short, or bit-flipped — maps to a distinct variant,
//! so callers (the CLI, the harness, CI) can report *what* is wrong with
//! an archive instead of panicking or guessing.

use std::fmt;

/// Why a trace could not be read, written or imported.
#[derive(Debug)]
pub enum TraceIoError {
    /// An underlying filesystem or stream error.
    Io(std::io::Error),
    /// The file does not start with the `.sdbt` magic.
    BadMagic {
        /// The first eight bytes actually found.
        found: [u8; 8],
    },
    /// The file was written by a newer format version than this build
    /// understands.
    UnsupportedVersion {
        /// Version recorded in the file.
        found: u32,
        /// Newest version this build supports.
        supported: u32,
    },
    /// The header failed structural validation or its checksum.
    HeaderCorrupt {
        /// What specifically failed.
        detail: String,
    },
    /// The file ended before the structure it promised was complete.
    Truncated {
        /// Which structure was being read when the bytes ran out.
        context: &'static str,
    },
    /// A chunk's payload checksum did not match its frame.
    ChunkChecksum {
        /// Zero-based index of the failing chunk.
        chunk: u64,
    },
    /// A record within a chunk could not be decoded.
    CorruptRecord {
        /// Zero-based index of the chunk holding the record.
        chunk: u64,
    },
    /// The decoded record count disagrees with the header.
    CountMismatch {
        /// Count promised by the header.
        header: u64,
        /// Records actually decoded.
        decoded: u64,
    },
    /// The end marker's whole-file checksum did not match the chunks read.
    TrailerChecksum,
    /// The workload name is longer than the header format can carry.
    NameTooLong {
        /// Bytes in the offending name.
        len: usize,
        /// Longest length the format allows.
        max: usize,
    },
    /// An encoded chunk payload outgrew the frame's `u32` length field.
    ChunkTooLarge {
        /// Bytes in the offending chunk payload.
        bytes: usize,
    },
    /// A line of an external text trace could not be parsed.
    Import {
        /// One-based line number.
        line: u64,
        /// What was wrong with it.
        detail: String,
    },
    /// A v2 chunk's payload length disagrees with its record count —
    /// the columns cannot all be the width the frame promises.
    ColumnLength {
        /// Zero-based index of the failing chunk.
        chunk: u64,
        /// Payload bytes the record count requires.
        expected: u64,
        /// Payload bytes the frame actually carries.
        found: u64,
    },
    /// One column of a v2 chunk failed its checksum.
    ColumnChecksum {
        /// Zero-based index of the failing chunk.
        chunk: u64,
        /// Which column (`"pcs"`, `"addrs"` or `"flags"`).
        column: &'static str,
    },
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace i/o failed: {e}"),
            TraceIoError::BadMagic { found } => {
                write!(f, "not an .sdbt trace (magic {found:02x?})")
            }
            TraceIoError::UnsupportedVersion { found, supported } => write!(
                f,
                "trace format version {found} is newer than supported version {supported}"
            ),
            TraceIoError::HeaderCorrupt { detail } => {
                write!(f, "trace header corrupt: {detail}")
            }
            TraceIoError::Truncated { context } => {
                write!(f, "trace truncated while reading {context}")
            }
            TraceIoError::ChunkChecksum { chunk } => {
                write!(f, "checksum mismatch in chunk {chunk}")
            }
            TraceIoError::CorruptRecord { chunk } => {
                write!(f, "undecodable record in chunk {chunk}")
            }
            TraceIoError::CountMismatch { header, decoded } => {
                write!(
                    f,
                    "header promises {header} records but file holds {decoded}"
                )
            }
            TraceIoError::TrailerChecksum => {
                write!(f, "whole-file checksum mismatch at end marker")
            }
            TraceIoError::NameTooLong { len, max } => {
                write!(
                    f,
                    "workload name of {len} bytes exceeds the {max}-byte header limit"
                )
            }
            TraceIoError::ChunkTooLarge { bytes } => {
                write!(
                    f,
                    "chunk payload of {bytes} bytes exceeds the u32 frame limit"
                )
            }
            TraceIoError::Import { line, detail } => {
                write!(f, "import failed at line {line}: {detail}")
            }
            TraceIoError::ColumnLength {
                chunk,
                expected,
                found,
            } => write!(
                f,
                "column layout mismatch in chunk {chunk}: record count \
                 requires {expected} payload bytes, frame carries {found}"
            ),
            TraceIoError::ColumnChecksum { chunk, column } => {
                write!(f, "checksum mismatch in {column} column of chunk {chunk}")
            }
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let cases: Vec<(TraceIoError, &str)> = vec![
            (TraceIoError::BadMagic { found: [0; 8] }, "magic"),
            (
                TraceIoError::UnsupportedVersion {
                    found: 9,
                    supported: 1,
                },
                "version 9",
            ),
            (
                TraceIoError::Truncated {
                    context: "chunk payload",
                },
                "chunk payload",
            ),
            (TraceIoError::ChunkChecksum { chunk: 3 }, "chunk 3"),
            (
                TraceIoError::CountMismatch {
                    header: 10,
                    decoded: 5,
                },
                "10",
            ),
            (
                TraceIoError::Import {
                    line: 7,
                    detail: "x".into(),
                },
                "line 7",
            ),
            (
                TraceIoError::NameTooLong {
                    len: 5000,
                    max: 4096,
                },
                "5000",
            ),
            (
                TraceIoError::ChunkTooLarge { bytes: 1 << 33 },
                "u32 frame limit",
            ),
            (
                TraceIoError::ColumnLength {
                    chunk: 2,
                    expected: 41,
                    found: 40,
                },
                "chunk 2",
            ),
            (
                TraceIoError::ColumnChecksum {
                    chunk: 4,
                    column: "addrs",
                },
                "addrs",
            ),
        ];
        for (err, needle) in cases {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }
}
