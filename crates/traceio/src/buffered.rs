//! Reading `.sdbt` traces: whole decoded batches borrowed from one
//! in-memory byte buffer. This is the crate's only decoder.
//!
//! The entire file lives in memory (read once from disk, or handed over
//! as bytes by `sdbp-serve`'s inline transfer), a chunk index is built
//! and validated up front, and consumers pull **whole chunks as column
//! batches** — per-record iterator machinery would cost more than the
//! v2 decode itself:
//!
//! * the flags column of a v2 chunk is borrowed straight from the file
//!   bytes — zero copy;
//! * the PC and address columns are widened `u8 → u64` in one bulk pass
//!   per chunk into caller-owned [`ColumnScratch`], the only copy on the
//!   path (safe Rust cannot borrow `&[u64]` from `&[u8]` without
//!   alignment games; the bulk widen compiles to a memcpy-shaped loop);
//! * v1 chunks decode through the varint codec into the same scratch, so
//!   the batch API is format-agnostic and v1 stays a valid (if slower)
//!   archival input.
//!
//! Indexing checks every frame, chunk checksum (v1) or column checksum
//! (v2), the whole-file checksum and the header's record count, so all
//! corruption — truncation, length mismatches, flipped bits — surfaces
//! as a typed [`TraceIoError`] before the first batch, never a panic.
//! `BufferedTrace` is `Sync` and `batch` takes `&self`, so one buffer
//! can be shared by threads that each own their scratch.

use crate::error::TraceIoError;
use crate::format::{
    fnv1a, fnv1a_words, fnv1a_words_pair, read_header, read_u32, read_u64, split_v2_payload,
    v2_payload_len, widen_column, DeltaState, GlobalChecksum, TraceMeta, V2Columns, FLAG_MASK,
    FORMAT_V2,
};
use sdbp_trace::batch::{InstrBatch, InstrBatcher};
use sdbp_trace::Instr;
use std::borrow::Cow;
use std::ops::Range;
use std::path::Path;

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

/// One indexed chunk: where its payload lives in the buffer.
#[derive(Clone, Debug)]
struct ChunkEntry {
    payload: Range<usize>,
    records: u32,
}

/// Caller-owned decode target, reused across chunks so the batch path
/// performs no per-chunk allocation once the columns reach steady-state
/// capacity. Each concurrent consumer owns its own scratch.
#[derive(Clone, Default, Debug)]
pub struct ColumnScratch {
    flags: Vec<u8>,
    pcs: Vec<u64>,
    addrs: Vec<u64>,
}

/// An entire `.sdbt` trace held in memory with a validated chunk index.
///
/// The backing bytes are either owned (read from disk) or **borrowed**
/// from the caller ([`from_slice`](BufferedTrace::from_slice)) — the
/// latter is how `sdbp-serve` replays an inline wire transfer without
/// copying the upload.
#[derive(Clone, Debug)]
pub struct BufferedTrace<'b> {
    bytes: Cow<'b, [u8]>,
    meta: TraceMeta,
    chunks: Vec<ChunkEntry>,
}

impl BufferedTrace<'static> {
    /// Reads `path` fully into memory and indexes it.
    ///
    /// # Errors
    ///
    /// Filesystem errors plus everything
    /// [`from_bytes`](BufferedTrace::from_bytes) reports.
    pub fn load(path: &Path) -> Result<Self, TraceIoError> {
        Self::from_bytes(std::fs::read(path)?)
    }

    /// Indexes an owned in-memory `.sdbt` image.
    ///
    /// # Errors
    ///
    /// Any header, frame, checksum or record-count defect, as a typed
    /// [`TraceIoError`].
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, TraceIoError> {
        Self::index(Cow::Owned(bytes))
    }

    /// Consumes the trace into a batch cursor that owns it (for
    /// [`TraceSource::open_batched`](sdbp_trace::TraceSource::open_batched),
    /// which cannot lend out a borrow of a local).
    pub fn into_batches(self) -> Batches<'static> {
        Batches { trace: Cow::Owned(self), scratch: ColumnScratch::default(), next: 0 }
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
        Self::index(Cow::Borrowed(bytes))
    }

    /// Indexes an in-memory `.sdbt` image. Frame structure, chunk/column
    /// checksums, the whole-file checksum and the header record count
    /// are all verified here, so `batch` failures afterwards are limited
    /// to record-level defects.
    fn index(bytes: Cow<'b, [u8]>) -> Result<Self, TraceIoError> {
        let mut src: &[u8] = &bytes;
        let meta = read_header(&mut src)?;
        let mut chunks = Vec::new();
        let mut global = GlobalChecksum::new();
        let mut records_total: u64 = 0;
        loop {
            let chunk = chunks.len() as u64;
            let payload_len = read_u32(&mut src, "chunk frame")? as usize;
            let records = read_u32(&mut src, "chunk frame")?;
            let checksum = read_u64(&mut src, "chunk frame")?;
            if payload_len == 0 {
                // End marker: checksum slot carries the whole-file value.
                if records != 0 {
                    return Err(TraceIoError::Truncated { context: "end marker" });
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
                break;
            }
            if records == 0 {
                return Err(TraceIoError::CorruptRecord { chunk });
            }
            let (payload, rest) = src
                .split_at_checked(payload_len)
                .ok_or(TraceIoError::Truncated { context: "chunk payload" })?;
            if meta.version >= FORMAT_V2 {
                // v2 chunks carry per-column checksums covering every
                // payload byte after the preamble, so integrity needs
                // only one hash pass: verify the columns, chain the
                // *declared* chunk checksum into the global, and let a
                // forged declared value surface as a trailer mismatch.
                global.fold(checksum);
                validate_v2_columns(&v2_columns(payload, records, chunk)?, chunk)?;
            } else {
                let actual = fnv1a(payload);
                if actual != checksum {
                    return Err(TraceIoError::ChunkChecksum { chunk });
                }
                global.fold(actual);
            }
            let start = bytes.len() - src.len();
            chunks.push(ChunkEntry { payload: start..start + payload_len, records });
            src = rest;
            records_total += u64::from(records);
        }
        Ok(BufferedTrace { bytes, meta, chunks })
    }

    /// The validated header metadata.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Number of data chunks in the file.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Total buffered file size in bytes.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
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
                // Frame payload lengths come from a u32 field, so this
                // never saturates in practice.
                payload_bytes: u32::try_from(c.payload.len()).unwrap_or(u32::MAX),
            })
            .collect()
    }

    /// Decodes chunk `index` into `scratch` and returns the batch view.
    ///
    /// The returned columns borrow from `self` (v2 flags — zero copy)
    /// and from `scratch` (everything that needed widening or varint
    /// decode). `&self` access plus caller-owned scratch is what makes
    /// concurrent decode of one buffer safe.
    ///
    /// # Errors
    ///
    /// [`TraceIoError::CorruptRecord`] on undecodable records or flag
    /// bytes with unknown bits; layout and checksum defects were already
    /// rejected at construction time.
    pub fn batch<'s>(
        &'s self,
        index: usize,
        scratch: &'s mut ColumnScratch,
    ) -> Result<InstrBatch<'s>, TraceIoError> {
        let chunk = index as u64;
        let entry = self.chunks.get(index).ok_or(TraceIoError::CorruptRecord { chunk })?;
        let payload = self.bytes.get(entry.payload.clone()).ok_or(
            // Unreachable: ranges were bounds-checked at construction.
            TraceIoError::Truncated { context: "chunk payload" },
        )?;
        if self.meta.version >= FORMAT_V2 {
            let cols = v2_columns(payload, entry.records, chunk)?;
            if cols.flags.iter().any(|f| f & !FLAG_MASK != 0) {
                return Err(TraceIoError::CorruptRecord { chunk });
            }
            widen_column(cols.pcs_bytes, &mut scratch.pcs);
            widen_column(cols.addrs_bytes, &mut scratch.addrs);
            InstrBatch::new(cols.flags, &scratch.pcs, &scratch.addrs)
                .ok_or(TraceIoError::CorruptRecord { chunk })
        } else {
            let records = entry.records as usize;
            scratch.flags.clear();
            scratch.pcs.clear();
            scratch.addrs.clear();
            scratch.flags.reserve(records);
            scratch.pcs.reserve(records);
            scratch.addrs.reserve(records);
            let mut delta = DeltaState::default();
            let mut pos = 0usize;
            for _ in 0..records {
                let instr = delta
                    .decode(payload, &mut pos)
                    .ok_or(TraceIoError::CorruptRecord { chunk })?;
                push_instr(scratch, &instr);
            }
            if pos != payload.len() {
                // Trailing garbage inside the frame is as corrupt as a
                // short record.
                return Err(TraceIoError::CorruptRecord { chunk });
            }
            InstrBatch::new(&scratch.flags, &scratch.pcs, &scratch.addrs)
                .ok_or(TraceIoError::CorruptRecord { chunk })
        }
    }

    /// A batch cursor over every chunk, in file order.
    pub fn batches(&self) -> Batches<'_> {
        Batches { trace: Cow::Borrowed(self), scratch: ColumnScratch::default(), next: 0 }
    }
}

fn push_instr(scratch: &mut ColumnScratch, instr: &Instr) {
    scratch.flags.push(sdbp_trace::batch::instr_flags(instr));
    scratch.pcs.push(instr.pc.raw());
    scratch.addrs.push(instr.mem.map_or(0, |m| m.addr.raw()));
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

/// Checks one v2 chunk's three declared column checksums.
fn validate_v2_columns(cols: &V2Columns<'_>, chunk: u64) -> Result<(), TraceIoError> {
    // Word-folded FNV, with the two u64 columns fused into one pass so
    // their serial hash chains overlap in the pipeline.
    let (pcs_actual, addrs_actual) = fnv1a_words_pair(cols.pcs_bytes, cols.addrs_bytes);
    for (declared, actual, column) in [
        (cols.pcs_fnv, pcs_actual, "pcs"),
        (cols.addrs_fnv, addrs_actual, "addrs"),
        (cols.flags_fnv, fnv1a_words(cols.flags), "flags"),
    ] {
        if actual != declared {
            return Err(TraceIoError::ColumnChecksum { chunk, column });
        }
    }
    Ok(())
}

/// A batch cursor over a [`BufferedTrace`], in file order: borrowing
/// ([`BufferedTrace::batches`]) or owning the trace
/// ([`BufferedTrace::into_batches`], movable across threads).
#[derive(Debug)]
pub struct Batches<'a> {
    trace: Cow<'a, BufferedTrace<'a>>,
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
    use crate::writer::TraceWriter;
    use crate::format::FORMAT_V1;
    use sdbp_trace::kernel::KernelSpec;
    use sdbp_trace::TraceBuilder;
    use std::io::Cursor;

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
        let mut w =
            TraceWriter::new(&mut buf, meta).unwrap().chunk_records(per_chunk);
        w.write_all(instrs(n)).unwrap();
        w.finish().unwrap();
        buf.into_inner()
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
            let trace =
                BufferedTrace::from_bytes(encode(version, 1000, 128)).unwrap();
            assert_eq!(trace.meta().count, 1000);
            assert_eq!(trace.chunk_count(), 8);
            assert_eq!(trace.chunk_stats()[0].records, 128);
            let mut got = Vec::new();
            let mut cur = trace.batches();
            while let Some(batch) = cur.try_next().unwrap() {
                got.extend(batch.iter());
            }
            assert_eq!(got, want, "version {version}");
            // The owning cursor walks the same chunks.
            let mut owned = Vec::new();
            let mut cur = trace.into_batches();
            while let Some(batch) = cur.try_next().unwrap() {
                owned.extend(batch.iter());
            }
            assert_eq!(owned, want, "version {version}, owned cursor");
        }
    }

    #[test]
    fn zero_copy_flags_point_into_the_file_buffer() {
        let trace = BufferedTrace::from_bytes(encode(FORMAT_V2, 100, 64)).unwrap();
        let mut scratch = ColumnScratch::default();
        let batch = trace.batch(0, &mut scratch).unwrap();
        let flags_ptr = batch.flags().as_ptr() as usize;
        let buf = trace.bytes.as_ptr() as usize;
        assert!(
            flags_ptr >= buf && flags_ptr < buf + trace.byte_len(),
            "v2 flags column must borrow from the file bytes"
        );
    }

    #[test]
    fn borrowed_buffer_decodes_without_owning_the_bytes() {
        let bytes = encode(FORMAT_V2, 300, 128);
        let trace = BufferedTrace::from_slice(&bytes).unwrap();
        assert!(matches!(trace.bytes, Cow::Borrowed(_)));
        let mut got = Vec::new();
        let mut cur = trace.batches();
        while let Some(batch) = cur.try_next().unwrap() {
            got.extend(batch.iter());
        }
        assert_eq!(got, instrs(300));
    }

    #[test]
    fn corrupt_bytes_surface_typed_errors_never_panics() {
        for version in [FORMAT_V1, FORMAT_V2] {
            let healthy = encode(version, 200, 64);
            // Structured sweep: truncate at every prefix length.
            for len in 0..healthy.len() {
                let r = BufferedTrace::from_slice(&healthy[..len]);
                assert!(r.is_err(), "v{version}: prefix of {len} bytes must not index cleanly");
            }
        }
    }
}
