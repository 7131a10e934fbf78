//! Reading `.sdbt` traces: whole decoded batches, one chunk at a time.
//! This is the crate's only decoder.
//!
//! A trace is either a **file** ([`BufferedTrace::load`]) or an
//! in-memory **image** (owned, or borrowed from `sdbp-serve`'s inline
//! transfer). Either way a chunk index is built and validated up front,
//! and consumers pull **whole chunks as column batches** — per-record
//! iterator machinery would cost more than the v2 decode itself:
//!
//! * a file is never held whole: indexing streams it once through one
//!   reused chunk-sized buffer, and each batch reads its chunk's payload
//!   with one positional read into caller-owned [`ColumnScratch`], so
//!   draining a file holds O(largest chunk) bytes of trace data;
//! * for an image, the flags column of a v2 chunk is borrowed straight
//!   from the image bytes — zero copy;
//! * the PC and address columns are widened `u8 → u64` in one bulk pass
//!   per chunk into the scratch (safe Rust cannot borrow `&[u64]` from
//!   `&[u8]` without alignment games; the bulk widen compiles to a
//!   memcpy-shaped loop);
//! * v1 chunks decode through the varint codec into the same scratch, so
//!   the batch API is format-agnostic and v1 stays a valid (if slower)
//!   archival input.
//!
//! Indexing checks every frame, chunk checksum (v1) or column checksum
//! (v2), the whole-file checksum and the header's record count, so all
//! corruption — truncation, length mismatches, flipped bits — surfaces
//! as a typed [`TraceIoError`] before the first batch, never a panic.
//! The index keeps each chunk's checksums (for a file-backed v1 chunk,
//! a word-folded digest taken while its byte-wise checksum was
//! verified), and a file-backed batch re-checks the bytes it reads
//! against them: a file changed on disk after indexing yields a typed
//! error, never unvalidated records.
//! `BufferedTrace` is `Sync` and `batch` takes `&self`, so one trace can
//! be shared by threads that each own their scratch.

use crate::error::TraceIoError;
use crate::format::{
    fnv1a, fnv1a_words, fnv1a_words_pair, read_header, read_u32, read_u64, split_v2_payload,
    truncated_or_io, v2_payload_len, widen_column, DeltaState, GlobalChecksum, TraceMeta,
    V2Columns, FLAG_MASK, FORMAT_V2,
};
use sdbp_trace::batch::{InstrBatch, InstrBatcher};
use std::borrow::Cow;
use std::fs::File;
use std::io::{self, Read};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::Arc;

/// Shape of one data chunk, from its frame.
///
/// `payload_bytes / (16 * records)` is the chunk's compression ratio
/// against the 16-byte nominal record (8-byte PC + 8-byte address a
/// fixed-width encoding would spend); see
/// [`NOMINAL_RECORD_BYTES`](ChunkStat::NOMINAL_RECORD_BYTES).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct ChunkStat {
    /// Records the chunk frame declared.
    pub records: u32,
    /// Encoded payload size in bytes.
    pub payload_bytes: u32,
}

impl ChunkStat {
    /// Bytes per record of the fixed-width baseline the delta codec is
    /// measured against: an 8-byte PC plus an 8-byte address.
    pub const NOMINAL_RECORD_BYTES: u64 = 16;

    /// Encoded bytes per record.
    #[must_use]
    pub fn bytes_per_record(&self) -> f64 {
        f64::from(self.payload_bytes) / f64::from(self.records.max(1))
    }

    /// Compression ratio: encoded bytes over the 16-byte nominal
    /// fixed-width encoding (lower is better; 1.0 means no gain).
    #[must_use]
    pub fn compression_ratio(&self) -> f64 {
        let nominal = u64::from(self.records.max(1)) * Self::NOMINAL_RECORD_BYTES;
        f64::from(self.payload_bytes) / nominal as f64
    }
}

/// The checksums a chunk was validated against when it was indexed.
#[derive(Copy, Clone, Debug)]
enum ChunkSum {
    /// v1: FNV-1a of the whole payload, as the frame declares it.
    Payload(u64),
    /// v1, file-backed: the word-folded [`fnv1a_words`] of the payload,
    /// taken while indexing checked [`Payload`](ChunkSum::Payload), so a
    /// batch re-checks with one multiply per 8 bytes instead of per byte.
    Words(u64),
    /// v2: the pcs, addrs and flags column checksums, as the payload's
    /// preamble declares them.
    Columns([u64; 3]),
}

impl ChunkSum {
    /// Checks `payload` against these checksums.
    fn verify(self, payload: &[u8], records: u32, chunk: u64) -> Result<(), TraceIoError> {
        match self {
            ChunkSum::Payload(want) if fnv1a(payload) != want => {
                Err(TraceIoError::ChunkChecksum { chunk })
            }
            ChunkSum::Words(want) if fnv1a_words(payload) != want => {
                Err(TraceIoError::ChunkChecksum { chunk })
            }
            ChunkSum::Payload(_) | ChunkSum::Words(_) => Ok(()),
            ChunkSum::Columns(want) => {
                let cols = v2_columns(payload, records, chunk)?;
                // Word-folded FNV, with the two u64 columns fused into one
                // pass so their serial hash chains overlap in the pipeline.
                let (pcs, addrs) = fnv1a_words_pair(cols.pcs_bytes, cols.addrs_bytes);
                let actual = [pcs, addrs, fnv1a_words(cols.flags)];
                for ((actual, want), column) in actual.into_iter().zip(want).zip(COLUMNS) {
                    if actual != want {
                        return Err(TraceIoError::ColumnChecksum { chunk, column });
                    }
                }
                Ok(())
            }
        }
    }
}

/// v2 column names, in preamble order, as [`TraceIoError::ColumnChecksum`]
/// reports them.
const COLUMNS: [&str; 3] = ["pcs", "addrs", "flags"];

/// One indexed chunk: where its payload lives and what it hashed to.
#[derive(Clone, Debug)]
struct ChunkEntry {
    /// Byte offset of the payload in the image or file.
    offset: u64,
    /// Payload length in bytes.
    len: u32,
    records: u32,
    sum: ChunkSum,
}

/// Where a trace's chunk payloads come from.
#[derive(Clone, Debug)]
enum Backing<'b> {
    /// An in-memory image, owned or borrowed; batches borrow from it.
    Image(Cow<'b, [u8]>),
    /// An open file; each batch reads its chunk with one positional read.
    File(Arc<File>),
}

/// Caller-owned decode target, reused across chunks so the batch path
/// performs no per-chunk allocation once the buffers reach steady-state
/// capacity. Each concurrent consumer owns its own scratch.
#[derive(Clone, Default, Debug)]
pub struct ColumnScratch {
    /// A file-backed chunk's payload bytes, as read from disk.
    payload: Vec<u8>,
    flags: Vec<u8>,
    pcs: Vec<u64>,
    addrs: Vec<u64>,
}

/// An `.sdbt` trace with a validated chunk index, decoded one chunk at
/// a time.
///
/// The payloads come from an open file ([`load`](BufferedTrace::load)),
/// from owned bytes ([`from_bytes`](BufferedTrace::from_bytes)) or from
/// bytes **borrowed** from the caller
/// ([`from_slice`](BufferedTrace::from_slice)) — the last is how
/// `sdbp-serve` replays an inline wire transfer without copying the
/// upload.
#[derive(Clone, Debug)]
pub struct BufferedTrace<'b> {
    backing: Backing<'b>,
    byte_len: u64,
    meta: TraceMeta,
    chunks: Vec<ChunkEntry>,
}

impl BufferedTrace<'static> {
    /// Opens `path` and indexes it in one pass through a reused
    /// chunk-sized buffer; the file stays open and each batch reads its
    /// chunk from it.
    ///
    /// # Errors
    ///
    /// Filesystem errors plus everything
    /// [`from_bytes`](BufferedTrace::from_bytes) reports.
    pub fn load(path: &Path) -> Result<Self, TraceIoError> {
        let file = File::open(path)?;
        let byte_len = file.metadata()?.len();
        let mut image = FileImage {
            file: &file,
            pos: 0,
            len: byte_len,
            buf: Vec::new(),
        };
        let (meta, chunks) = index(&mut image)?;
        Ok(BufferedTrace {
            backing: Backing::File(Arc::new(file)),
            byte_len,
            meta,
            chunks,
        })
    }

    /// Indexes an owned in-memory `.sdbt` image.
    ///
    /// # Errors
    ///
    /// Any header, frame, checksum or record-count defect, as a typed
    /// [`TraceIoError`].
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, TraceIoError> {
        Self::from_image(Cow::Owned(bytes))
    }
}

impl<'b> BufferedTrace<'b> {
    /// Indexes a **borrowed** `.sdbt` image — zero-copy over bytes
    /// someone else owns (an inline wire transfer, a memory-mapped
    /// region).
    ///
    /// # Errors
    ///
    /// As [`from_bytes`](BufferedTrace::from_bytes).
    pub fn from_slice(bytes: &'b [u8]) -> Result<Self, TraceIoError> {
        Self::from_image(Cow::Borrowed(bytes))
    }

    fn from_image(bytes: Cow<'b, [u8]>) -> Result<Self, TraceIoError> {
        let (meta, chunks) = index(&mut SliceImage {
            bytes: &bytes,
            pos: 0,
        })?;
        Ok(BufferedTrace {
            byte_len: bytes.len() as u64,
            backing: Backing::Image(bytes),
            meta,
            chunks,
        })
    }

    /// The validated header metadata.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Number of data chunks in the file.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Total file or image size in bytes.
    pub fn byte_len(&self) -> u64 {
        self.byte_len
    }

    /// Per-chunk shapes in file order, straight from the index (no
    /// decode pass). This is how `sdbp-repro trace info` sizes
    /// wire-transfer chunk limits: the largest encoded chunk bounds what
    /// one transfer frame must carry.
    pub fn chunk_stats(&self) -> Vec<ChunkStat> {
        self.chunks
            .iter()
            .map(|c| ChunkStat {
                records: c.records,
                payload_bytes: c.len,
            })
            .collect()
    }

    /// Decodes chunk `index` into `scratch` and returns the batch view.
    ///
    /// The returned columns borrow from `self` (an image's v2 flags —
    /// zero copy) and from `scratch` (a file-backed chunk's bytes and
    /// everything that needed widening or varint decode). `&self` access
    /// plus caller-owned scratch is what makes concurrent decode of one
    /// trace safe.
    ///
    /// # Errors
    ///
    /// [`TraceIoError::CorruptRecord`] on undecodable records or flag
    /// bytes with unknown bits; layout and checksum defects were already
    /// rejected at construction time. A file-backed chunk is re-checked
    /// against its indexed checksums, so a file changed since
    /// [`load`](BufferedTrace::load) yields
    /// [`TraceIoError::ChunkChecksum`], [`TraceIoError::ColumnChecksum`],
    /// [`TraceIoError::Truncated`] or [`TraceIoError::Io`].
    pub fn batch<'s>(
        &'s self,
        index: usize,
        scratch: &'s mut ColumnScratch,
    ) -> Result<InstrBatch<'s>, TraceIoError> {
        let chunk = index as u64;
        let entry = self
            .chunks
            .get(index)
            .ok_or(TraceIoError::CorruptRecord { chunk })?;
        let ColumnScratch {
            payload: buf,
            flags,
            pcs,
            addrs,
        } = scratch;
        let payload: &'s [u8] = match &self.backing {
            Backing::Image(bytes) => usize::try_from(entry.offset)
                .ok()
                .and_then(|start| bytes.get(start..start + entry.len as usize))
                // Unreachable: ranges were bounds-checked at construction.
                .ok_or(TraceIoError::Truncated {
                    context: "chunk payload",
                })?,
            Backing::File(file) => {
                buf.resize(entry.len as usize, 0);
                file.read_exact_at(buf, entry.offset)
                    .map_err(|e| truncated_or_io(e, "chunk payload"))?;
                entry.sum.verify(buf, entry.records, chunk)?;
                buf
            }
        };
        if self.meta.version >= FORMAT_V2 {
            let cols = v2_columns(payload, entry.records, chunk)?;
            if cols.flags.iter().any(|f| f & !FLAG_MASK != 0) {
                return Err(TraceIoError::CorruptRecord { chunk });
            }
            widen_column(cols.pcs_bytes, pcs);
            widen_column(cols.addrs_bytes, addrs);
            InstrBatch::new(cols.flags, pcs, addrs).ok_or(TraceIoError::CorruptRecord { chunk })
        } else {
            let records = entry.records as usize;
            flags.clear();
            pcs.clear();
            addrs.clear();
            flags.reserve(records);
            pcs.reserve(records);
            addrs.reserve(records);
            let mut delta = DeltaState::default();
            let mut pos = 0usize;
            for _ in 0..records {
                let instr = delta
                    .decode(payload, &mut pos)
                    .ok_or(TraceIoError::CorruptRecord { chunk })?;
                flags.push(sdbp_trace::batch::instr_flags(&instr));
                pcs.push(instr.pc.raw());
                addrs.push(instr.mem.map_or(0, |m| m.addr.raw()));
            }
            if pos != payload.len() {
                // Trailing garbage inside the frame is as corrupt as a
                // short record.
                return Err(TraceIoError::CorruptRecord { chunk });
            }
            InstrBatch::new(flags, pcs, addrs).ok_or(TraceIoError::CorruptRecord { chunk })
        }
    }

    /// A batch cursor over every chunk, in file order.
    pub fn batches(&self) -> Batches<'_> {
        Batches {
            trace: self,
            scratch: ColumnScratch::default(),
            next: 0,
        }
    }
}

/// A trace being indexed, read front to back: frame fields through
/// [`Read`], chunk payloads through [`payload`](Image::payload).
trait Image: Read {
    /// Whether batches read chunks back from the source and re-check
    /// them (a file), rather than borrow validated bytes (an image).
    const RECHECKED: bool;

    /// Offset of the next unread byte.
    fn pos(&self) -> u64;

    /// The next `len` bytes, or [`TraceIoError::Truncated`] when fewer
    /// remain.
    fn payload(&mut self, len: usize) -> Result<&[u8], TraceIoError>;
}

/// An in-memory image: payloads are borrowed, never copied.
struct SliceImage<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Read for SliceImage<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let n = self.bytes.get(self.pos..).unwrap_or_default().read(out)?;
        self.pos += n;
        Ok(n)
    }
}

impl Image for SliceImage<'_> {
    const RECHECKED: bool = false;

    fn pos(&self) -> u64 {
        self.pos as u64
    }

    fn payload(&mut self, len: usize) -> Result<&[u8], TraceIoError> {
        let payload = self
            .bytes
            .get(self.pos..)
            .and_then(|rest| rest.get(..len))
            .ok_or(TraceIoError::Truncated {
                context: "chunk payload",
            })?;
        self.pos += len;
        Ok(payload)
    }
}

/// A file read with positional reads; each payload lands in one reused
/// buffer, so indexing holds O(largest chunk) bytes.
struct FileImage<'f> {
    file: &'f File,
    pos: u64,
    /// File length when it was opened.
    len: u64,
    buf: Vec<u8>,
}

impl Read for FileImage<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let n = self.file.read_at(out, self.pos)?;
        self.pos += n as u64;
        Ok(n)
    }
}

impl Image for FileImage<'_> {
    const RECHECKED: bool = true;

    fn pos(&self) -> u64 {
        self.pos
    }

    fn payload(&mut self, len: usize) -> Result<&[u8], TraceIoError> {
        // Checked before allocating, so a corrupt length field cannot
        // ask for more memory than the file holds.
        if len as u64 > self.len.saturating_sub(self.pos) {
            return Err(TraceIoError::Truncated {
                context: "chunk payload",
            });
        }
        self.buf.resize(len, 0);
        self.file
            .read_exact_at(&mut self.buf, self.pos)
            .map_err(|e| truncated_or_io(e, "chunk payload"))?;
        self.pos += len as u64;
        Ok(&self.buf)
    }
}

/// Reads and validates a whole trace front to back. Frame structure,
/// chunk/column checksums, the whole-file checksum and the header record
/// count are all verified here, so `batch` failures afterwards are
/// limited to record-level defects (and, for a file, to changes made on
/// disk since).
fn index<I: Image>(image: &mut I) -> Result<(TraceMeta, Vec<ChunkEntry>), TraceIoError> {
    let meta = read_header(image)?;
    let mut chunks = Vec::new();
    let mut global = GlobalChecksum::new();
    let mut records_total: u64 = 0;
    loop {
        let chunk = chunks.len() as u64;
        let len = read_u32(image, "chunk frame")?;
        let records = read_u32(image, "chunk frame")?;
        let checksum = read_u64(image, "chunk frame")?;
        if len == 0 {
            // End marker: checksum slot carries the whole-file value.
            if records != 0 {
                return Err(TraceIoError::Truncated {
                    context: "end marker",
                });
            }
            if checksum != global.value() {
                return Err(TraceIoError::TrailerChecksum);
            }
            if records_total != meta.count {
                return Err(TraceIoError::CountMismatch {
                    header: meta.count,
                    decoded: records_total,
                });
            }
            return Ok((meta, chunks));
        }
        if records == 0 {
            return Err(TraceIoError::CorruptRecord { chunk });
        }
        let offset = image.pos();
        let payload = image.payload(len as usize)?;
        // v2 chunks carry per-column checksums covering every payload
        // byte after the preamble, so integrity needs only one hash
        // pass: verify the columns, chain the *declared* chunk checksum
        // into the global, and let a forged declared value surface as a
        // trailer mismatch. v1 chains its verified payload checksum; a
        // file-backed v1 chunk then keeps the cheaper word digest of the
        // bytes just verified for its batch re-check.
        let sum = if meta.version >= FORMAT_V2 {
            let cols = v2_columns(payload, records, chunk)?;
            ChunkSum::Columns([cols.pcs_fnv, cols.addrs_fnv, cols.flags_fnv])
        } else {
            ChunkSum::Payload(checksum)
        };
        sum.verify(payload, records, chunk)?;
        let sum = match sum {
            ChunkSum::Payload(_) if I::RECHECKED => ChunkSum::Words(fnv1a_words(payload)),
            sum => sum,
        };
        global.fold(checksum);
        chunks.push(ChunkEntry {
            offset,
            len,
            records,
            sum,
        });
        records_total += u64::from(records);
    }
}

/// Splits one v2 chunk payload into its columns; a payload whose length
/// does not fit `records` fixed-width records is
/// [`TraceIoError::ColumnLength`].
fn v2_columns(payload: &[u8], records: u32, chunk: u64) -> Result<V2Columns<'_>, TraceIoError> {
    let records = records as usize;
    split_v2_payload(payload, records).ok_or(TraceIoError::ColumnLength {
        chunk,
        expected: v2_payload_len(records) as u64,
        found: payload.len() as u64,
    })
}

/// A batch cursor over a [`BufferedTrace`], in file order
/// ([`BufferedTrace::batches`]).
#[derive(Debug)]
pub struct Batches<'a> {
    trace: &'a BufferedTrace<'a>,
    scratch: ColumnScratch,
    next: usize,
}

impl Batches<'_> {
    /// Decodes the next chunk, or `Ok(None)` past the last one.
    ///
    /// # Errors
    ///
    /// As [`BufferedTrace::batch`].
    pub fn try_next(&mut self) -> Result<Option<InstrBatch<'_>>, TraceIoError> {
        if self.next >= self.trace.chunk_count() {
            return Ok(None);
        }
        let index = self.next;
        self.next += 1;
        self.trace.batch(index, &mut self.scratch).map(Some)
    }
}

impl InstrBatcher for Batches<'_> {
    fn next_batch(&mut self) -> Result<Option<InstrBatch<'_>>, String> {
        self.try_next().map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::FORMAT_V1;
    use crate::writer::TraceWriter;
    use sdbp_trace::kernel::KernelSpec;
    use sdbp_trace::{Instr, TraceBuilder};
    use std::io::Cursor;
    use std::path::PathBuf;

    fn instrs(n: usize) -> Vec<Instr> {
        TraceBuilder::new(0xb0f)
            .kernel(KernelSpec::hot_set(1 << 14))
            .kernel(KernelSpec::streaming(1 << 20))
            .build()
            .take(n)
            .collect()
    }

    fn encode(version: u32, n: usize, per_chunk: u32) -> Vec<u8> {
        let mut buf = Cursor::new(Vec::new());
        let meta = TraceMeta::new("buffered", 0xb0f).with_version(version);
        let mut w = TraceWriter::new(&mut buf, meta)
            .unwrap()
            .chunk_records(per_chunk);
        w.write_all(instrs(n)).unwrap();
        w.finish().unwrap();
        buf.into_inner()
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("sdbt-buffered-{}-{name}", std::process::id()))
    }

    fn assert_sync<T: Sync + Send>() {}

    #[test]
    fn buffered_trace_is_shareable_across_threads() {
        assert_sync::<BufferedTrace>();
        assert_sync::<Batches<'static>>();
    }

    #[test]
    fn batches_reproduce_the_stream_in_both_versions() {
        let want = instrs(1000);
        for version in [FORMAT_V1, FORMAT_V2] {
            let trace = BufferedTrace::from_bytes(encode(version, 1000, 128)).unwrap();
            assert_eq!(trace.meta().count, 1000);
            assert_eq!(trace.chunk_count(), 8);
            assert_eq!(trace.chunk_stats()[0].records, 128);
            let mut got = Vec::new();
            let mut cur = trace.batches();
            while let Some(batch) = cur.try_next().unwrap() {
                got.extend(batch.iter());
            }
            assert_eq!(got, want, "version {version}");
        }
    }

    #[test]
    fn zero_copy_flags_point_into_the_file_buffer() {
        let trace = BufferedTrace::from_bytes(encode(FORMAT_V2, 100, 64)).unwrap();
        let Backing::Image(bytes) = &trace.backing else {
            panic!("from_bytes keeps the image");
        };
        let mut scratch = ColumnScratch::default();
        let batch = trace.batch(0, &mut scratch).unwrap();
        assert!(
            bytes.as_ptr_range().contains(&batch.flags().as_ptr()),
            "v2 flags column must borrow from the image bytes"
        );
    }

    #[test]
    fn borrowed_buffer_decodes_without_owning_the_bytes() {
        let bytes = encode(FORMAT_V2, 300, 128);
        let trace = BufferedTrace::from_slice(&bytes).unwrap();
        assert!(matches!(trace.backing, Backing::Image(Cow::Borrowed(_))));
        let mut got = Vec::new();
        let mut cur = trace.batches();
        while let Some(batch) = cur.try_next().unwrap() {
            got.extend(batch.iter());
        }
        assert_eq!(got, instrs(300));
    }

    #[test]
    fn file_backed_drain_holds_one_chunk_of_trace_bytes() {
        for version in [FORMAT_V1, FORMAT_V2] {
            let bytes = encode(version, 3000, 256);
            let path = tmp(&format!("drain-v{version}.sdbt"));
            std::fs::write(&path, &bytes).unwrap();
            let trace = BufferedTrace::load(&path).unwrap();
            std::fs::remove_file(&path).unwrap();
            assert!(matches!(trace.backing, Backing::File(_)));
            assert_eq!(trace.byte_len(), bytes.len() as u64);
            let largest = trace.chunk_stats().iter().map(|c| c.payload_bytes).max();
            let mut scratch = ColumnScratch::default();
            let mut got = Vec::new();
            for index in 0..trace.chunk_count() {
                got.extend(trace.batch(index, &mut scratch).unwrap().iter());
            }
            // The unlinked file still reads through the open handle.
            assert_eq!(got, instrs(3000), "version {version}");
            assert_eq!(
                u32::try_from(scratch.payload.len()).ok(),
                trace.chunk_stats().last().map(|c| c.payload_bytes)
            );
            assert!(
                scratch.payload.capacity() <= 2 * largest.unwrap() as usize,
                "version {version}: the payload buffer must be chunk-sized"
            );
        }
    }

    #[test]
    fn corrupt_bytes_surface_typed_errors_never_panics() {
        for version in [FORMAT_V1, FORMAT_V2] {
            let healthy = encode(version, 200, 64);
            let path = tmp(&format!("prefix-v{version}.sdbt"));
            // Structured sweep: truncate at every prefix length, in
            // memory and on disk; both must fail the same way.
            for len in 0..healthy.len() {
                let in_memory = BufferedTrace::from_slice(&healthy[..len]).map(drop);
                assert!(
                    in_memory.is_err(),
                    "v{version}: prefix of {len} bytes must not index cleanly"
                );
                std::fs::write(&path, &healthy[..len]).unwrap();
                let on_disk = BufferedTrace::load(&path).map(drop);
                assert_eq!(
                    format!("{on_disk:?}"),
                    format!("{in_memory:?}"),
                    "v{version}: {len}"
                );
            }
            std::fs::remove_file(&path).unwrap();
        }
    }
}
