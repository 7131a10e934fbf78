//! `sdbp-traceio` — binary trace record/replay for the SDBP reproduction.
//!
//! The paper evaluates on fixed SPEC CPU 2006 traces replayed through
//! CMP$im; this crate gives the reproduction the same property. A
//! workload's instruction stream — synthetic or externally captured — is
//! archived once into a versioned binary container (`.sdbt`) and replayed
//! bit-exactly on any machine, so results can be compared across runs,
//! hosts, and tool versions.
//!
//! # The `.sdbt` container
//!
//! A header (magic, format version, workload name, generator seed, record
//! count, checksum) followed by fixed-record-count chunks, each framed
//! with its byte length, record count and FNV-1a checksum, closed by an
//! end marker carrying a whole-file checksum. Two payload encodings
//! share that framing:
//!
//! * **v1** ([`FORMAT_V1`]) — varint + address-delta records, ~4.4
//!   bytes/access: the compact archival default.
//! * **v2** ([`FORMAT_V2`]) — fixed-width columns (PCs, addresses,
//!   flags as separate per-chunk arrays, each with a word-folded
//!   checksum): ~3.7× faster batch decode than v1, at ~17 bytes/access
//!   on disk.
//!
//! [`convert_stream`]/[`convert_path`] move a trace between the two
//! losslessly in either direction. See [`mod@format`] for the byte-level
//! layout and DESIGN.md §8/§14 for the rationale and compatibility
//! rules.
//!
//! * [`TraceWriter`] buffers one chunk at a time (O(chunk) memory) and
//!   writes either format ([`TraceMeta::with_version`]).
//! * [`BufferedTrace`] is the one decoder: it indexes a file (streamed
//!   once through a chunk-sized buffer, then read back one chunk per
//!   batch, so O(chunk) memory) or an owned or borrowed in-memory image,
//!   validates every frame and checksum when it indexes it, and lends
//!   whole decoded [`InstrBatch`](sdbp_trace::batch::InstrBatch)es per
//!   chunk — zero copy for an image's v2 flags column. Every defect —
//!   truncation, bad magic, a flipped bit, a version from the future, a
//!   file changed on disk after indexing — surfaces as a typed
//!   [`TraceIoError`], never a panic.
//! * [`read_header`] reads and validates just the header, for callers
//!   that need a trace's metadata without its records.
//! * [`import`] turns ChampSim-style `pc addr is_write` text traces into
//!   `.sdbt` workloads.
//! * [`FileSource`] plugs a trace file into the
//!   [`TraceSource`](sdbp_trace::TraceSource) abstraction, so the harness
//!   and every `sdbp-engine` job run from a file exactly as they run from
//!   a synthetic generator.
//!
//! # Example
//!
//! ```
//! use sdbp_traceio::{BufferedTrace, TraceMeta, TraceWriter};
//! use sdbp_trace::{kernel::KernelSpec, TraceBuilder};
//! use std::io::Cursor;
//!
//! // Record 10k instructions of a synthetic workload...
//! let mut buf = Cursor::new(Vec::new());
//! let mut writer = TraceWriter::new(&mut buf, TraceMeta::new("demo", 7)).unwrap();
//! let trace = TraceBuilder::new(7).kernel(KernelSpec::hot_set(1 << 14)).build();
//! writer.write_all(trace.take(10_000)).unwrap();
//! let summary = writer.finish().unwrap();
//! assert_eq!(summary.instructions, 10_000);
//!
//! // ...and replay them bit-exactly, one decoded chunk at a time.
//! let bytes = buf.into_inner();
//! let trace = BufferedTrace::from_slice(&bytes).unwrap();
//! assert_eq!(trace.meta().count, 10_000);
//! let mut replayed = Vec::new();
//! let mut batches = trace.batches();
//! while let Some(batch) = batches.try_next().unwrap() {
//!     replayed.extend(batch.iter());
//! }
//! let original: Vec<_> =
//!     TraceBuilder::new(7).kernel(KernelSpec::hot_set(1 << 14)).build().take(10_000).collect();
//! assert_eq!(replayed, original);
//! ```

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::cast_possible_truncation
)]
#![warn(missing_debug_implementations)]

pub mod buffered;
pub mod convert;
pub mod error;
pub mod format;
pub mod import;
pub mod source;
pub mod writer;

pub use buffered::{Batches, BufferedTrace, ChunkStat, ColumnScratch};
pub use convert::{convert_path, convert_stream, ConvertSummary};
pub use error::TraceIoError;
pub use format::{
    read_header, TraceMeta, DEFAULT_CHUNK_RECORDS, FORMAT_V1, FORMAT_V2, FORMAT_VERSION, MAGIC,
};
pub use import::{import_text, parse_line};
pub use source::FileSource;
pub use writer::{TraceWriter, WriteSummary};
