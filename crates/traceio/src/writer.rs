//! Buffered, chunk-framed writing of `.sdbt` traces.

use crate::error::TraceIoError;
use crate::format::{
    encode_v2_payload, fnv1a, DeltaState, GlobalChecksum, TraceMeta, DEFAULT_CHUNK_RECORDS,
    FORMAT_V1, FORMAT_V2, FORMAT_VERSION, MAX_NAME_LEN,
};
use sdbp_trace::batch::ColumnBuf;
use sdbp_trace::Instr;
use std::fs::File;
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::Path;

/// What a finished recording amounted to.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct WriteSummary {
    /// Instruction records written.
    pub instructions: u64,
    /// Data chunks written (excluding the end marker).
    pub chunks: u64,
    /// Total file size in bytes, header and framing included.
    pub bytes: u64,
}

impl WriteSummary {
    /// Encoded bytes per instruction record, the headline compression
    /// figure `trace record` and `trace convert` report.
    pub fn bytes_per_access(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.bytes as f64 / self.instructions as f64
        }
    }
}

/// Streaming `.sdbt` writer: buffers one chunk of encoded records at a
/// time, so memory stays O(chunk) no matter how long the trace runs.
///
/// The sink must be `Seek` because the header's record count and checksum
/// are only known at [`finish`](TraceWriter::finish) time; both `File`
/// and `Cursor<Vec<u8>>` qualify.
///
/// ```
/// use sdbp_traceio::{BufferedTrace, TraceMeta, TraceWriter};
/// use sdbp_trace::{Addr, Instr, MemRef, Pc};
/// use std::io::Cursor;
///
/// let mut buf = Cursor::new(Vec::new());
/// let mut w = TraceWriter::new(&mut buf, TraceMeta::new("demo", 7)).unwrap();
/// w.write(&Instr::mem(Pc::new(0x400), MemRef::read(Addr::new(0x1000)))).unwrap();
/// let summary = w.finish().unwrap();
/// assert_eq!(summary.instructions, 1);
///
/// let trace = BufferedTrace::from_bytes(buf.into_inner()).unwrap();
/// assert_eq!(trace.meta().count, 1);
/// ```
#[derive(Debug)]
pub struct TraceWriter<W: Write + Seek> {
    out: W,
    meta: TraceMeta,
    delta: DeltaState,
    cols: ColumnBuf,
    chunk: Vec<u8>,
    chunk_records: u32,
    records_per_chunk: u32,
    chunks: u64,
    count: u64,
    bytes: u64,
    global: GlobalChecksum,
}

impl TraceWriter<BufWriter<File>> {
    /// Creates `path` (truncating any existing file) and writes the
    /// provisional header.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn create(path: &Path, meta: TraceMeta) -> Result<Self, TraceIoError> {
        TraceWriter::new(BufWriter::new(File::create(path)?), meta)
    }
}

impl<W: Write + Seek> TraceWriter<W> {
    /// Wraps `out`, writing the provisional header immediately.
    ///
    /// # Errors
    ///
    /// [`TraceIoError::NameTooLong`] if the workload name exceeds
    /// [`MAX_NAME_LEN`]; [`TraceIoError::UnsupportedVersion`] if
    /// `meta.version` names a layout this build cannot encode; otherwise
    /// propagates write errors.
    pub fn new(mut out: W, meta: TraceMeta) -> Result<Self, TraceIoError> {
        if meta.name.len() > MAX_NAME_LEN {
            return Err(TraceIoError::NameTooLong {
                len: meta.name.len(),
                max: MAX_NAME_LEN,
            });
        }
        if !(FORMAT_V1..=FORMAT_V2).contains(&meta.version) {
            return Err(TraceIoError::UnsupportedVersion {
                found: meta.version,
                supported: FORMAT_VERSION,
            });
        }
        let header = meta.to_bytes();
        out.write_all(&header)?;
        Ok(TraceWriter {
            out,
            meta,
            delta: DeltaState::default(),
            cols: ColumnBuf::default(),
            chunk: Vec::new(),
            chunk_records: 0,
            records_per_chunk: DEFAULT_CHUNK_RECORDS,
            chunks: 0,
            count: 0,
            bytes: header.len() as u64,
            global: GlobalChecksum::new(),
        })
    }

    /// Overrides the records-per-chunk framing (mainly for tests; the
    /// default suits multi-million-access traces).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn chunk_records(mut self, n: u32) -> Self {
        assert!(n > 0, "a chunk must hold at least one record");
        self.records_per_chunk = n;
        self
    }

    /// Appends one instruction record.
    ///
    /// # Errors
    ///
    /// Propagates write errors from flushing a completed chunk.
    pub fn write(&mut self, instr: &Instr) -> Result<(), TraceIoError> {
        if self.meta.version >= FORMAT_V2 {
            self.cols.push(instr);
        } else {
            self.delta.encode(instr, &mut self.chunk);
        }
        self.chunk_records += 1;
        self.count += 1;
        if self.chunk_records >= self.records_per_chunk {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Appends every instruction of `instrs`.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn write_all<I: IntoIterator<Item = Instr>>(
        &mut self,
        instrs: I,
    ) -> Result<(), TraceIoError> {
        for i in instrs {
            self.write(&i)?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> Result<(), TraceIoError> {
        if self.chunk_records == 0 {
            return Ok(());
        }
        if self.meta.version >= FORMAT_V2 {
            // Columns buffer until the chunk closes; serialize them as
            // one columnar payload now.
            encode_v2_payload(&self.cols, &mut self.chunk);
            self.cols.clear();
        }
        let payload_fnv = fnv1a(&self.chunk);
        let payload_len =
            u32::try_from(self.chunk.len()).map_err(|_| TraceIoError::ChunkTooLarge {
                bytes: self.chunk.len(),
            })?;
        self.out.write_all(&payload_len.to_le_bytes())?;
        self.out.write_all(&self.chunk_records.to_le_bytes())?;
        self.out.write_all(&payload_fnv.to_le_bytes())?;
        self.out.write_all(&self.chunk)?;
        self.bytes += 16 + self.chunk.len() as u64;
        self.global.fold(payload_fnv);
        self.chunks += 1;
        self.chunk.clear();
        self.chunk_records = 0;
        // Chunks decode independently: reset the delta baseline.
        self.delta = DeltaState::default();
        Ok(())
    }

    /// Flushes the tail chunk, writes the end marker, and patches the
    /// header's count and checksum.
    ///
    /// # Errors
    ///
    /// Propagates write/seek errors.
    pub fn finish(mut self) -> Result<WriteSummary, TraceIoError> {
        self.flush_chunk()?;
        // End marker: a zero-length frame whose checksum slot carries the
        // whole-file checksum.
        self.out.write_all(&0u32.to_le_bytes())?;
        self.out.write_all(&0u32.to_le_bytes())?;
        self.out.write_all(&self.global.value().to_le_bytes())?;
        self.bytes += 16;
        // Rewrite the header now that the count is known.
        self.meta.count = self.count;
        self.out.seek(SeekFrom::Start(0))?;
        self.out.write_all(&self.meta.to_bytes())?;
        self.out.flush()?;
        Ok(WriteSummary {
            instructions: self.count,
            chunks: self.chunks,
            bytes: self.bytes,
        })
    }
}
