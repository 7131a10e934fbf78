//! Streaming, chunk-at-a-time reading of `.sdbt` traces.

use crate::error::TraceIoError;
use crate::format::{
    fnv1a, fnv1a_words, fnv1a_words_pair, split_v2_payload, DeltaState, GlobalChecksum, TraceMeta,
    FLAG_MASK, FORMAT_V2, FORMAT_VERSION, MAGIC, MAX_NAME_LEN, V2_PREAMBLE_LEN,
    V2_RECORD_BYTES,
};
use sdbp_trace::batch::instr_from_columns;
use sdbp_trace::Instr;
use std::fs::File;
use std::io::{BufReader, Read};
use std::path::Path;

/// How much checking the reader does while streaming.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum Integrity {
    /// Validate per-chunk payload checksums and the whole-file checksum
    /// at the end marker (the corrupt-tolerant mode: every corruption is
    /// reported as a typed [`TraceIoError`], never a panic).
    #[default]
    Validate,
    /// Skip checksum arithmetic; structural errors (truncation, bad
    /// varints, count mismatches) are still detected.
    Fast,
}

/// Shape of one data chunk, recorded as the reader streams past it.
///
/// `payload_bytes / (16 * records)` is the chunk's compression ratio
/// against the 16-byte nominal record (8-byte PC + 8-byte address a
/// fixed-width encoding would spend); see
/// [`nominal_record_bytes`](ChunkStat::NOMINAL_RECORD_BYTES).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct ChunkStat {
    /// Records the chunk frame declared (and the decoder consumed).
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

/// Streaming `.sdbt` reader: holds one decoded chunk in memory at a time,
/// so a multi-hundred-million-access trace replays in O(chunk) space.
///
/// Iterate it directly — items are `Result<Instr, TraceIoError>`; after
/// the first error (or the validated end marker) the iterator fuses to
/// `None`. The header is validated eagerly in [`new`](TraceReader::new),
/// so an unusable file fails before any records are consumed.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    src: R,
    meta: TraceMeta,
    integrity: Integrity,
    chunk: Vec<u8>,
    pos: usize,
    chunk_records: u32,
    chunk_records_left: u32,
    delta: DeltaState,
    chunk_index: u64,
    decoded: u64,
    global: GlobalChecksum,
    done: bool,
    chunk_stats: Vec<ChunkStat>,
}

impl TraceReader<BufReader<File>> {
    /// Opens `path` in the default [`Integrity::Validate`] mode.
    ///
    /// # Errors
    ///
    /// Filesystem errors, or any header defect ([`TraceIoError::BadMagic`],
    /// [`TraceIoError::UnsupportedVersion`], ...).
    pub fn open(path: &Path) -> Result<Self, TraceIoError> {
        Self::open_with(path, Integrity::Validate)
    }

    /// Opens `path` with an explicit integrity mode.
    ///
    /// # Errors
    ///
    /// As [`open`](TraceReader::open).
    pub fn open_with(path: &Path, integrity: Integrity) -> Result<Self, TraceIoError> {
        TraceReader::with_integrity(BufReader::new(File::open(path)?), integrity)
    }
}

impl<R: Read> TraceReader<R> {
    /// Wraps `src` in the default [`Integrity::Validate`] mode, reading
    /// and validating the header.
    ///
    /// # Errors
    ///
    /// As [`open`](TraceReader::open).
    pub fn new(src: R) -> Result<Self, TraceIoError> {
        Self::with_integrity(src, Integrity::Validate)
    }

    /// Wraps `src` with an explicit integrity mode.
    ///
    /// # Errors
    ///
    /// As [`open`](TraceReader::open).
    pub fn with_integrity(mut src: R, integrity: Integrity) -> Result<Self, TraceIoError> {
        let meta = read_header(&mut src)?;
        Ok(TraceReader {
            src,
            meta,
            integrity,
            chunk: Vec::new(),
            pos: 0,
            chunk_records: 0,
            chunk_records_left: 0,
            delta: DeltaState::default(),
            chunk_index: 0,
            decoded: 0,
            global: GlobalChecksum::new(),
            done: false,
            chunk_stats: Vec::new(),
        })
    }

    /// The validated header metadata.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Data chunks consumed so far.
    pub fn chunks_read(&self) -> u64 {
        self.chunk_index
    }

    /// Per-chunk record counts and encoded sizes, in file order, for the
    /// chunks consumed so far (all of them once the stream is drained).
    /// This is how `sdbp-repro trace info` sizes wire-transfer chunk
    /// limits: the largest encoded chunk bounds what one transfer frame
    /// must carry.
    pub fn chunk_stats(&self) -> &[ChunkStat] {
        &self.chunk_stats
    }

    /// Loads the next chunk. Returns `false` on the (validated) end
    /// marker.
    fn load_chunk(&mut self) -> Result<bool, TraceIoError> {
        let payload_len = read_u32(&mut self.src, "chunk frame")?;
        let records = read_u32(&mut self.src, "chunk frame")?;
        let checksum = read_u64(&mut self.src, "chunk frame")?;
        if payload_len == 0 {
            // End marker: the checksum slot holds the whole-file checksum.
            if records != 0 {
                return Err(TraceIoError::Truncated { context: "end marker" });
            }
            if self.integrity == Integrity::Validate && checksum != self.global.value() {
                return Err(TraceIoError::TrailerChecksum);
            }
            if self.decoded != self.meta.count {
                return Err(TraceIoError::CountMismatch {
                    header: self.meta.count,
                    decoded: self.decoded,
                });
            }
            return Ok(false);
        }
        if records == 0 {
            return Err(TraceIoError::CorruptRecord { chunk: self.chunk_index });
        }
        self.chunk.resize(payload_len as usize, 0);
        read_exact(&mut self.src, &mut self.chunk, "chunk payload")?;
        if self.meta.version >= FORMAT_V2 {
            // v2 chunks carry per-column checksums covering every payload
            // byte after the preamble, so integrity needs only one hash
            // pass: verify the columns, chain the *declared* chunk
            // checksum into the global, and let a forged declared value
            // surface as a trailer mismatch.
            if self.integrity == Integrity::Validate {
                self.global.fold(checksum);
            }
            self.validate_v2_chunk(records)?;
        } else if self.integrity == Integrity::Validate {
            let actual = fnv1a(&self.chunk);
            if actual != checksum {
                return Err(TraceIoError::ChunkChecksum { chunk: self.chunk_index });
            }
            self.global.fold(actual);
        }
        self.pos = 0;
        self.chunk_records = records;
        self.chunk_records_left = records;
        self.delta = DeltaState::default();
        self.chunk_stats.push(ChunkStat { records, payload_bytes: payload_len });
        Ok(true)
    }

    /// Checks the freshly loaded chunk's columnar layout: exact payload
    /// length for the record count, and (in validating mode) all three
    /// per-column checksums.
    fn validate_v2_chunk(&self, records: u32) -> Result<(), TraceIoError> {
        let expected = V2_PREAMBLE_LEN as u64 + V2_RECORD_BYTES as u64 * u64::from(records);
        let cols = split_v2_payload(&self.chunk, records as usize).ok_or(
            TraceIoError::ColumnLength {
                chunk: self.chunk_index,
                expected,
                found: self.chunk.len() as u64,
            },
        )?;
        if self.integrity == Integrity::Validate {
            // Word-folded FNV, with the two u64 columns fused into one
            // pass so their serial hash chains overlap in the pipeline.
            let (pcs_actual, addrs_actual) =
                fnv1a_words_pair(cols.pcs_bytes, cols.addrs_bytes);
            for (declared, actual, column) in [
                (cols.pcs_fnv, pcs_actual, "pcs"),
                (cols.addrs_fnv, addrs_actual, "addrs"),
                (cols.flags_fnv, fnv1a_words(cols.flags), "flags"),
            ] {
                if actual != declared {
                    return Err(TraceIoError::ColumnChecksum {
                        chunk: self.chunk_index,
                        column,
                    });
                }
            }
        }
        Ok(())
    }

    /// Reassembles record `idx` of the current v2 chunk from its three
    /// columns. `None` only on out-of-range offsets or unknown flag bits
    /// (the layout itself was validated at chunk load).
    fn decode_v2_record(&self, idx: usize) -> Option<Instr> {
        let records = self.chunk_records as usize;
        let pc_off = V2_PREAMBLE_LEN + idx * 8;
        let addr_off = V2_PREAMBLE_LEN + (records + idx) * 8;
        let flags_off = V2_PREAMBLE_LEN + records * 16 + idx;
        let read = |off: usize| -> Option<u64> {
            let bytes = self.chunk.get(off..off + 8)?;
            <[u8; 8]>::try_from(bytes).ok().map(u64::from_le_bytes)
        };
        let flags = *self.chunk.get(flags_off)?;
        if flags & !FLAG_MASK != 0 {
            return None;
        }
        Some(instr_from_columns(flags, read(pc_off)?, read(addr_off)?))
    }

    fn next_record(&mut self) -> Result<Option<Instr>, TraceIoError> {
        while self.chunk_records_left == 0 {
            if !self.load_chunk()? {
                return Ok(None);
            }
            self.chunk_index += 1;
        }
        // chunk_index was already advanced past this chunk; report its
        // zero-based index.
        let here = self.chunk_index - 1;
        let instr = if self.meta.version >= FORMAT_V2 {
            let idx = (self.chunk_records - self.chunk_records_left) as usize;
            self.decode_v2_record(idx)
                .ok_or(TraceIoError::CorruptRecord { chunk: here })?
        } else {
            let instr = self
                .delta
                .decode(&self.chunk, &mut self.pos)
                .ok_or(TraceIoError::CorruptRecord { chunk: here })?;
            if self.chunk_records_left == 1 && self.pos != self.chunk.len() {
                // Trailing garbage inside the frame is as corrupt as a
                // short record.
                return Err(TraceIoError::CorruptRecord { chunk: here });
            }
            instr
        };
        self.chunk_records_left -= 1;
        self.decoded += 1;
        Ok(Some(instr))
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<Instr, TraceIoError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.next_record() {
            Ok(Some(instr)) => Some(Ok(instr)),
            Ok(None) => {
                self.done = true;
                None
            }
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

/// `read_exact` with truncation mapped to the typed error.
fn read_exact<R: Read>(
    src: &mut R,
    buf: &mut [u8],
    context: &'static str,
) -> Result<(), TraceIoError> {
    src.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            TraceIoError::Truncated { context }
        } else {
            TraceIoError::Io(e)
        }
    })
}

/// Reads a little-endian `u32` as one fixed-size read (no slicing, so a
/// short source is a typed [`TraceIoError::Truncated`], never a panic).
fn read_u32<R: Read>(src: &mut R, context: &'static str) -> Result<u32, TraceIoError> {
    let mut buf = [0u8; 4];
    read_exact(src, &mut buf, context)?;
    Ok(u32::from_le_bytes(buf))
}

/// Reads a little-endian `u64`; see [`read_u32`].
fn read_u64<R: Read>(src: &mut R, context: &'static str) -> Result<u64, TraceIoError> {
    let mut buf = [0u8; 8];
    read_exact(src, &mut buf, context)?;
    Ok(u64::from_le_bytes(buf))
}

/// Reads and validates the header, leaving `src` at the first chunk.
/// Shared with the fully-buffered reader (`&[u8]` implements `Read`).
pub(crate) fn read_header<R: Read>(src: &mut R) -> Result<TraceMeta, TraceIoError> {
    let mut magic = [0u8; 8];
    read_exact(src, &mut magic, "header magic")?;
    if magic != MAGIC {
        return Err(TraceIoError::BadMagic { found: magic });
    }
    let version = read_u32(src, "header fields")?;
    let seed = read_u64(src, "header fields")?;
    let count = read_u64(src, "header fields")?;
    let name_len = read_u32(src, "header fields")?;
    if version > FORMAT_VERSION {
        return Err(TraceIoError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    if version == 0 {
        return Err(TraceIoError::HeaderCorrupt { detail: "version 0".into() });
    }
    if name_len as usize > MAX_NAME_LEN {
        return Err(TraceIoError::HeaderCorrupt {
            detail: format!("implausible name length {name_len}"),
        });
    }
    let mut name_bytes = vec![0u8; name_len as usize];
    read_exact(src, &mut name_bytes, "header name")?;
    let fnv = read_u64(src, "header checksum")?;
    // Rebuild the checksummed header body by re-serializing the fields;
    // the encoding is canonical little-endian, so the bytes are
    // identical to what was read.
    let mut body = Vec::with_capacity(32 + name_bytes.len());
    body.extend_from_slice(&magic);
    body.extend_from_slice(&version.to_le_bytes());
    body.extend_from_slice(&seed.to_le_bytes());
    body.extend_from_slice(&count.to_le_bytes());
    body.extend_from_slice(&name_len.to_le_bytes());
    body.extend_from_slice(&name_bytes);
    if fnv1a(&body) != fnv {
        return Err(TraceIoError::HeaderCorrupt { detail: "checksum mismatch".into() });
    }
    let name = String::from_utf8(name_bytes)
        .map_err(|_| TraceIoError::HeaderCorrupt { detail: "name is not UTF-8".into() })?;
    Ok(TraceMeta { name, seed, count, version })
}
