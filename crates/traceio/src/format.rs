//! On-disk layout of the `.sdbt` container: magic, header, chunk frames,
//! and the two record codecs — v1 varint + delta, v2 fixed-width columns.
//!
//! ```text
//! file   := header chunk* end-marker
//! header := magic(8) version(u32) seed(u64) count(u64)
//!           name_len(u32) name(name_len) header_fnv(u64)
//! chunk  := payload_len(u32) records(u32) payload_fnv(u64) payload
//! end    := payload_len=0(u32) records=0(u32) global_fnv(u64)
//! ```
//!
//! All integers are little-endian. `count` and `header_fnv` are patched by
//! [`TraceWriter::finish`](crate::TraceWriter::finish); `global_fnv` folds
//! every chunk's payload checksum in order, so a validating reader detects
//! chunk reordering or replacement even when each chunk is self-consistent.
//! The framing is identical in both versions; only the payload encoding
//! differs, selected by the header `version` field.
//!
//! **v1 payload** (compact archival form): each record is a flags byte
//! followed by a zigzag-varint program-counter delta and (for memory
//! instructions) a zigzag-varint address delta. Delta state resets at
//! every chunk boundary, which makes chunks independently decodable — the
//! property the corrupt-tolerant reader relies on to report *which* chunk
//! failed.
//!
//! **v2 payload** (columnar replay form): three fixed-width parallel
//! columns with a per-column checksum preamble —
//!
//! ```text
//! payload := pcs_fnv(u64) addrs_fnv(u64) flags_fnv(u64)
//!            pcs[records × u64] addrs[records × u64] flags[records × u8]
//! ```
//!
//! so `payload_len` is exactly `24 + 17 × records` and a reader holding
//! one chunk's payload can hand out whole columns without per-record
//! decode: the flags column is borrowed straight from the payload bytes,
//! the `u64` columns are widened in one bulk pass per chunk. Non-memory
//! records store `0` in their address slot. All three column checksums are word-folded FNV-1a
//! ([`fnv1a_words`]: one step per aligned 8-byte word, byte-wise tail),
//! so validation scales with records, not bytes. See DESIGN.md §14 for
//! the borrow rules and why v1 stays the archival default.

use crate::error::TraceIoError;
use sdbp_trace::batch::ColumnBuf;
use sdbp_trace::{AccessKind, Addr, Instr, MemRef, Pc};
use std::io::Read;

/// Magic bytes identifying an `.sdbt` file.
pub const MAGIC: [u8; 8] = *b"SDBTRACE";

/// The varint + delta archival layout (the default written format).
pub const FORMAT_V1: u32 = 1;

/// The fixed-width columnar replay layout.
pub const FORMAT_V2: u32 = 2;

/// Newest container version this build reads and writes.
pub const FORMAT_VERSION: u32 = FORMAT_V2;

/// Default records per chunk (~64 Ki records, a few hundred KiB encoded).
pub const DEFAULT_CHUNK_RECORDS: u32 = 1 << 16;

/// Longest workload name the header encodes; the reader rejects longer
/// claims as corruption and the writer refuses to produce them.
pub const MAX_NAME_LEN: usize = 4096;

/// Byte offset of the `count` field within the header (after magic,
/// version and seed).
pub const COUNT_OFFSET: u64 = 8 + 4 + 8;

// The flags byte is the canonical record encoding shared with in-memory
// batches; both codecs and `sdbp_trace::batch` must agree bit-for-bit, so
// there is exactly one definition.
pub use sdbp_trace::batch::{FLAG_DEPENDENT, FLAG_MASK, FLAG_MEM, FLAG_WRITE};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64: folds `bytes` into `hash`.
pub fn fnv1a_step(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV-1a 64 of `bytes` from the standard offset basis.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_step(FNV_OFFSET, bytes)
}

/// Word-folded FNV-1a 64 of a `u64` column: one xor-multiply step per
/// value instead of one per byte. This is the checksum the v2 layout
/// stores for its fixed-width u64 columns — verification cost scales
/// with records, not bytes, which is what keeps validating batch decode
/// fast. Identical to [`fnv1a_words`] over the serialized column bytes.
fn fnv1a_u64s(vals: &[u64]) -> u64 {
    vals.iter()
        .fold(FNV_OFFSET, |h, v| (h ^ v).wrapping_mul(FNV_PRIME))
}

/// Word-folded FNV-1a 64 of a serialized column, the checksum the v2
/// layout stores per column: folds each aligned 8-byte little-endian
/// word as one unit; a trailing partial word (the flags column when
/// `records % 8 != 0`) folds byte-wise so the hash still covers every
/// byte.
pub fn fnv1a_words(bytes: &[u8]) -> u64 {
    let mut chunks = bytes.chunks_exact(8);
    let mut hash = FNV_OFFSET;
    for chunk in chunks.by_ref() {
        if let Ok(arr) = <[u8; 8]>::try_from(chunk) {
            hash = (hash ^ u64::from_le_bytes(arr)).wrapping_mul(FNV_PRIME);
        }
    }
    fnv1a_step(hash, chunks.remainder())
}

/// [`fnv1a_words`] of two equal-length columns in one pass. Each hash is
/// a serial xor-multiply dependency chain, so folding the `pcs` and
/// `addrs` columns in the same loop lets the two independent chains
/// overlap in the pipeline — validation runs at nearly the single-column
/// cost. Falls back to two separate folds when the lengths differ.
pub fn fnv1a_words_pair(a: &[u8], b: &[u8]) -> (u64, u64) {
    if a.len() != b.len() {
        return (fnv1a_words(a), fnv1a_words(b));
    }
    let (mut ha, mut hb) = (FNV_OFFSET, FNV_OFFSET);
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    for (wa, wb) in ca.by_ref().zip(cb.by_ref()) {
        if let (Ok(aa), Ok(ab)) = (<[u8; 8]>::try_from(wa), <[u8; 8]>::try_from(wb)) {
            ha = (ha ^ u64::from_le_bytes(aa)).wrapping_mul(FNV_PRIME);
            hb = (hb ^ u64::from_le_bytes(ab)).wrapping_mul(FNV_PRIME);
        }
    }
    (
        fnv1a_step(ha, ca.remainder()),
        fnv1a_step(hb, cb.remainder()),
    )
}

/// The running whole-file checksum: chunk payload checksums folded in
/// file order, starting from the offset basis.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct GlobalChecksum(u64);

impl GlobalChecksum {
    /// Fresh accumulator (offset basis).
    pub const fn new() -> Self {
        GlobalChecksum(FNV_OFFSET)
    }

    /// Folds one chunk's payload checksum in.
    pub fn fold(&mut self, chunk_fnv: u64) {
        self.0 = fnv1a_step(self.0, &chunk_fnv.to_le_bytes());
    }

    /// The accumulated value (written into / compared against the end
    /// marker's checksum slot).
    pub const fn value(self) -> u64 {
        self.0
    }
}

impl Default for GlobalChecksum {
    fn default() -> Self {
        GlobalChecksum::new()
    }
}

/// Zigzag-encodes a signed delta so small magnitudes of either sign get
/// short varints.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends `v` as an LEB128 varint (1–10 bytes).
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an LEB128 varint from `buf` starting at `*pos`, advancing `*pos`.
///
/// Returns `None` on overrun (truncated buffer) or overlong encoding.
pub fn get_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    for shift in 0..10u32 {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        // The 10th byte may only carry the final bit of a 64-bit value.
        if shift == 9 && byte > 1 {
            return None;
        }
        v |= u64::from(byte & 0x7f) << (shift * 7);
        if byte & 0x80 == 0 {
            return Some(v);
        }
    }
    None
}

/// The per-chunk delta-codec state; reset at every chunk boundary.
#[derive(Copy, Clone, Default, Debug)]
pub struct DeltaState {
    prev_pc: u64,
    prev_addr: u64,
}

impl DeltaState {
    /// Appends `instr` to `out` and advances the delta state.
    pub fn encode(&mut self, instr: &Instr, out: &mut Vec<u8>) {
        let mut flags = 0u8;
        if let Some(m) = instr.mem {
            flags |= FLAG_MEM;
            if m.kind.is_write() {
                flags |= FLAG_WRITE;
            }
            if m.dependent {
                flags |= FLAG_DEPENDENT;
            }
        }
        out.push(flags);
        let pc = instr.pc.raw();
        put_varint(out, zigzag(pc.wrapping_sub(self.prev_pc) as i64));
        self.prev_pc = pc;
        if let Some(m) = instr.mem {
            let addr = m.addr.raw();
            put_varint(out, zigzag(addr.wrapping_sub(self.prev_addr) as i64));
            self.prev_addr = addr;
        }
    }

    /// Decodes one record from `buf` at `*pos`, advancing `*pos`.
    ///
    /// Returns `None` when the buffer is truncated mid-record or the
    /// flags byte has unknown bits set.
    pub fn decode(&mut self, buf: &[u8], pos: &mut usize) -> Option<Instr> {
        let flags = *buf.get(*pos)?;
        if flags & !FLAG_MASK != 0 {
            return None;
        }
        *pos += 1;
        let pc_delta = unzigzag(get_varint(buf, pos)?);
        self.prev_pc = self.prev_pc.wrapping_add(pc_delta as u64);
        let pc = Pc::new(self.prev_pc);
        if flags & FLAG_MEM == 0 {
            return Some(Instr::non_mem(pc));
        }
        let addr_delta = unzigzag(get_varint(buf, pos)?);
        self.prev_addr = self.prev_addr.wrapping_add(addr_delta as u64);
        let kind = if flags & FLAG_WRITE != 0 {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        Some(Instr::mem(
            pc,
            MemRef {
                addr: Addr::new(self.prev_addr),
                kind,
                dependent: flags & FLAG_DEPENDENT != 0,
            },
        ))
    }
}

/// Byte length of the v2 per-chunk column-checksum preamble
/// (`pcs_fnv`, `addrs_fnv`, `flags_fnv`).
pub const V2_PREAMBLE_LEN: usize = 24;

/// Encoded bytes per record in a v2 chunk payload (8 PC + 8 address +
/// 1 flags).
pub const V2_RECORD_BYTES: usize = 17;

/// Exact v2 payload length for a chunk of `records` records.
pub const fn v2_payload_len(records: usize) -> usize {
    V2_PREAMBLE_LEN + records * V2_RECORD_BYTES
}

/// The three raw columns of one v2 chunk payload, split but not yet
/// checksum-verified or widened. Borrowed straight from the payload
/// bytes — splitting allocates nothing.
#[derive(Copy, Clone, Debug)]
pub struct V2Columns<'a> {
    /// Serialized program-counter column (`records × 8` bytes, LE).
    pub pcs_bytes: &'a [u8],
    /// Serialized address column (`records × 8` bytes, LE).
    pub addrs_bytes: &'a [u8],
    /// Flags column, one canonical flags byte per record.
    pub flags: &'a [u8],
    /// Declared checksum of the PC column bytes.
    pub pcs_fnv: u64,
    /// Declared checksum of the address column bytes.
    pub addrs_fnv: u64,
    /// Declared checksum of the flags column.
    pub flags_fnv: u64,
}

/// Serializes buffered columns as one v2 chunk payload appended to `out`.
///
/// Layout: 24-byte checksum preamble, then the PC, address and flags
/// columns back to back (fixed width, no padding — the odd-sized flags
/// column goes last so the `u64` columns stay 8-aligned *within* the
/// payload).
pub fn encode_v2_payload(cols: &ColumnBuf, out: &mut Vec<u8>) {
    out.extend_from_slice(&fnv1a_u64s(&cols.pcs).to_le_bytes());
    out.extend_from_slice(&fnv1a_u64s(&cols.addrs).to_le_bytes());
    out.extend_from_slice(&fnv1a_words(&cols.flags).to_le_bytes());
    for v in &cols.pcs {
        out.extend_from_slice(&v.to_le_bytes());
    }
    for v in &cols.addrs {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&cols.flags);
}

/// Splits a v2 chunk payload into its three columns.
///
/// Returns `None` when `payload.len()` is not exactly
/// [`v2_payload_len`]`(records)` — the column-length-mismatch corruption
/// case; the caller maps it to a typed error naming the chunk.
pub fn split_v2_payload(payload: &[u8], records: usize) -> Option<V2Columns<'_>> {
    if payload.len() != v2_payload_len(records) {
        return None;
    }
    let col = records.checked_mul(8)?;
    let mut pos = 0usize;
    let mut take = |len: usize| -> Option<&[u8]> {
        let part = payload.get(pos..pos + len)?;
        pos += len;
        Some(part)
    };
    let read_fnv =
        |bytes: &[u8]| -> Option<u64> { <[u8; 8]>::try_from(bytes).ok().map(u64::from_le_bytes) };
    let pcs_fnv = read_fnv(take(8)?)?;
    let addrs_fnv = read_fnv(take(8)?)?;
    let flags_fnv = read_fnv(take(8)?)?;
    let pcs_bytes = take(col)?;
    let addrs_bytes = take(col)?;
    let flags = take(records)?;
    Some(V2Columns {
        pcs_bytes,
        addrs_bytes,
        flags,
        pcs_fnv,
        addrs_fnv,
        flags_fnv,
    })
}

/// Widens a serialized little-endian `u64` column into `out` (cleared
/// first) in one bulk pass — the only copy the v2 decode path performs.
///
/// Trailing bytes that do not fill a full `u64` are ignored; callers
/// validate exact column lengths before widening ([`split_v2_payload`]).
pub fn widen_column(bytes: &[u8], out: &mut Vec<u64>) {
    out.clear();
    out.reserve(bytes.len() / 8);
    for chunk in bytes.chunks_exact(8) {
        // Always 8 bytes here, so the conversion never fails; written
        // without indexing to keep this panic-free by construction.
        if let Ok(arr) = <[u8; 8]>::try_from(chunk) {
            out.push(u64::from_le_bytes(arr));
        }
    }
}

/// Everything the header records about a trace.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceMeta {
    /// Workload name (benchmark name for recordings, caller-chosen for
    /// imports).
    pub name: String,
    /// Generator seed the stream was built from (0 for imported traces).
    pub seed: u64,
    /// Total instruction records in the file.
    pub count: u64,
    /// Container format version the file was written with.
    pub version: u32,
}

impl TraceMeta {
    /// Metadata for a new recording (count is filled in at finish time).
    ///
    /// Defaults to the v1 archival layout; chain
    /// [`with_version`](TraceMeta::with_version) to target v2.
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        TraceMeta {
            name: name.into(),
            seed,
            count: 0,
            version: FORMAT_V1,
        }
    }

    /// The same metadata targeting container `version`.
    ///
    /// The writer rejects versions it cannot encode
    /// ([`FORMAT_V1`]..=[`FORMAT_V2`]) at construction time.
    pub fn with_version(mut self, version: u32) -> Self {
        self.version = version;
        self
    }

    /// Serializes the header, including its trailing checksum.
    pub fn to_bytes(&self) -> Vec<u8> {
        let name = self.name.as_bytes();
        let mut out = Vec::with_capacity(32 + name.len() + 8);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&self.count.to_le_bytes());
        // Length is validated at writer construction (<= MAX_NAME_LEN);
        // saturating here means a bypassed check yields a header the
        // reader rejects outright instead of a silently truncated length.
        let name_len = u32::try_from(name.len()).unwrap_or(u32::MAX);
        out.extend_from_slice(&name_len.to_le_bytes());
        out.extend_from_slice(name);
        let fnv = fnv1a(&out);
        out.extend_from_slice(&fnv.to_le_bytes());
        out
    }
}

/// Reads and validates an `.sdbt` header from `src`, leaving it at the
/// first chunk frame. Reads nothing past the header, so a caller that
/// only needs the metadata (a file's record count, an upload's label)
/// never touches the records.
///
/// # Errors
///
/// [`TraceIoError::BadMagic`], [`TraceIoError::UnsupportedVersion`],
/// [`TraceIoError::HeaderCorrupt`] (bad checksum, version 0, implausible
/// name length, non-UTF-8 name), [`TraceIoError::Truncated`] on a short
/// source, or the source's own I/O error.
pub fn read_header<R: Read>(src: &mut R) -> Result<TraceMeta, TraceIoError> {
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
        return Err(TraceIoError::HeaderCorrupt {
            detail: "version 0".into(),
        });
    }
    if name_len as usize > MAX_NAME_LEN {
        return Err(TraceIoError::HeaderCorrupt {
            detail: format!("implausible name length {name_len}"),
        });
    }
    let mut name_bytes = vec![0u8; name_len as usize];
    read_exact(src, &mut name_bytes, "header name")?;
    let fnv = read_u64(src, "header checksum")?;
    let name = String::from_utf8(name_bytes).map_err(|_| TraceIoError::HeaderCorrupt {
        detail: "name is not UTF-8".into(),
    })?;
    let meta = TraceMeta {
        name,
        seed,
        count,
        version,
    };
    // The encoding is canonical little-endian, so re-serializing the
    // parsed fields reproduces the bytes just read, checksum included.
    if !meta.to_bytes().ends_with(&fnv.to_le_bytes()) {
        return Err(TraceIoError::HeaderCorrupt {
            detail: "checksum mismatch".into(),
        });
    }
    Ok(meta)
}

/// `read_exact` with running out of bytes mapped to the typed
/// [`TraceIoError::Truncated`], never a panic.
pub(crate) fn read_exact<R: Read>(
    src: &mut R,
    buf: &mut [u8],
    context: &'static str,
) -> Result<(), TraceIoError> {
    src.read_exact(buf).map_err(|e| truncated_or_io(e, context))
}

/// Maps running out of bytes while reading `context` to
/// [`TraceIoError::Truncated`] and any other I/O error to
/// [`TraceIoError::Io`].
pub(crate) fn truncated_or_io(e: std::io::Error, context: &'static str) -> TraceIoError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        TraceIoError::Truncated { context }
    } else {
        TraceIoError::Io(e)
    }
}

/// Reads a little-endian `u32`; see [`read_exact`].
pub(crate) fn read_u32<R: Read>(src: &mut R, context: &'static str) -> Result<u32, TraceIoError> {
    let mut buf = [0u8; 4];
    read_exact(src, &mut buf, context)?;
    Ok(u32::from_le_bytes(buf))
}

/// Reads a little-endian `u64`; see [`read_exact`].
pub(crate) fn read_u64<R: Read>(src: &mut R, context: &'static str) -> Result<u64, TraceIoError> {
    let mut buf = [0u8; 8];
    read_exact(src, &mut buf, context)?;
    Ok(u64::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_round_trips_extremes() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 0x4000_0000_0000] {
            assert_eq!(unzigzag(zigzag(v)), v, "{v}");
        }
    }

    #[test]
    fn varint_round_trips() {
        let mut buf = Vec::new();
        let values = [
            0u64,
            1,
            127,
            128,
            300,
            0xffff,
            u64::from(u32::MAX),
            u64::MAX,
            u64::MAX - 1,
        ];
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(get_varint(&buf, &mut pos), Some(v));
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_rejects_truncation_and_overlong() {
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        let mut pos = 0;
        assert_eq!(get_varint(&buf[..buf.len() - 1], &mut pos), None);
        // Eleven continuation bytes can never be a valid u64.
        let overlong = [0x80u8; 11];
        let mut pos = 0;
        assert_eq!(get_varint(&overlong, &mut pos), None);
    }

    #[test]
    fn delta_codec_round_trips_mixed_records() {
        let instrs = vec![
            Instr::non_mem(Pc::new(0x400_000)),
            Instr::mem(Pc::new(0x400_004), MemRef::read(Addr::new(0x1_0000_0040))),
            Instr::mem(Pc::new(0x400_000), MemRef::write(Addr::new(0x1_0000_0000))),
            Instr::mem(
                Pc::new(0x400_008),
                MemRef::read(Addr::new(u64::MAX)).dependent(),
            ),
            Instr::non_mem(Pc::new(0)),
        ];
        let mut enc = DeltaState::default();
        let mut buf = Vec::new();
        for i in &instrs {
            enc.encode(i, &mut buf);
        }
        let mut dec = DeltaState::default();
        let mut pos = 0;
        for want in &instrs {
            assert_eq!(dec.decode(&buf, &mut pos).as_ref(), Some(want));
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn decode_rejects_unknown_flags() {
        let buf = [0xf8u8, 0x00];
        let mut pos = 0;
        assert!(DeltaState::default().decode(&buf, &mut pos).is_none());
    }

    #[test]
    fn header_serializes_with_valid_checksum() {
        let meta = TraceMeta {
            name: "456.hmmer".into(),
            seed: 42,
            count: 7,
            version: 1,
        };
        let bytes = meta.to_bytes();
        assert_eq!(&bytes[..8], &MAGIC);
        let body = &bytes[..bytes.len() - 8];
        let fnv = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
        assert_eq!(fnv, fnv1a(body));
    }

    #[test]
    fn v2_payload_round_trips_and_checksums() {
        let instrs = vec![
            Instr::non_mem(Pc::new(0x400_000)),
            Instr::mem(Pc::new(0x400_004), MemRef::read(Addr::new(0x1_0000_0040))),
            Instr::mem(
                Pc::new(0x400_000),
                MemRef::write(Addr::new(u64::MAX)).dependent(),
            ),
        ];
        let mut cols = ColumnBuf::default();
        for i in &instrs {
            cols.push(i);
        }
        let mut payload = Vec::new();
        encode_v2_payload(&cols, &mut payload);
        assert_eq!(payload.len(), v2_payload_len(instrs.len()));
        let split = split_v2_payload(&payload, instrs.len()).unwrap();
        assert_eq!(split.pcs_fnv, fnv1a_words(split.pcs_bytes));
        assert_eq!(split.addrs_fnv, fnv1a_words(split.addrs_bytes));
        assert_eq!(split.flags_fnv, fnv1a_words(split.flags));
        let (mut pcs, mut addrs) = (Vec::new(), Vec::new());
        widen_column(split.pcs_bytes, &mut pcs);
        widen_column(split.addrs_bytes, &mut addrs);
        assert_eq!(pcs, cols.pcs);
        assert_eq!(addrs, cols.addrs);
        assert_eq!(split.flags, &cols.flags[..]);
        // Length mismatches are detected in both directions.
        assert!(split_v2_payload(&payload, instrs.len() + 1).is_none());
        assert!(split_v2_payload(&payload[..payload.len() - 1], instrs.len()).is_none());
    }

    #[test]
    fn fnv_u64_column_matches_byte_hash() {
        let vals = [0u64, 1, u64::MAX, 0xdead_beef];
        let mut bytes = Vec::new();
        for v in &vals {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(fnv1a_u64s(&vals), fnv1a_words(&bytes));
        // A partial trailing word still covers every byte.
        bytes.push(0x5a);
        assert_ne!(fnv1a_words(&bytes), fnv1a_u64s(&vals));
    }

    #[test]
    fn global_checksum_is_order_sensitive() {
        let mut a = GlobalChecksum::new();
        a.fold(1);
        a.fold(2);
        let mut b = GlobalChecksum::new();
        b.fold(2);
        b.fold(1);
        assert_ne!(a.value(), b.value());
    }
}
