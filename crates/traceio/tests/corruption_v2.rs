//! Corrupted-input tests for the columnar **v2** chunk layout: a
//! truncated column array, a records/payload-length mismatch, a bad
//! per-column checksum, a v2 header over a v1 body, a forged chunk
//! checksum, and a fixed-seed byte-flip fuzz sweep — every one must
//! surface as a typed [`TraceIoError`] from [`BufferedTrace`], never a
//! panic and never silently-wrong records.
//!
//! v2 validation is single-pass: the three column checksums cover every
//! payload byte after the preamble, and the *declared* chunk checksum is
//! folded into the global trailer hash. These tests pin the resulting
//! error taxonomy — column damage is a [`TraceIoError::ColumnChecksum`]
//! naming the column, layout damage is [`TraceIoError::ColumnLength`],
//! and a forged declared chunk checksum deferred-detects as
//! [`TraceIoError::TrailerChecksum`] at the end marker.

use sdbp_trace::kernel::KernelSpec;
use sdbp_trace::rng::Rng64;
use sdbp_trace::TraceBuilder;
use sdbp_traceio::format::{V2_PREAMBLE_LEN, V2_RECORD_BYTES};
use sdbp_traceio::{BufferedTrace, TraceIoError, TraceMeta, TraceWriter, FORMAT_V1, FORMAT_V2};
use std::io::Cursor;
use std::path::PathBuf;

const RECORDS: usize = 5000;
const CHUNK_RECORDS: u32 = 512;

/// A small healthy trace spanning several chunks, in the given format.
fn healthy_bytes(version: u32) -> Vec<u8> {
    let mut buf = Cursor::new(Vec::new());
    let meta = TraceMeta::new("victim", 42).with_version(version);
    let mut writer = TraceWriter::new(&mut buf, meta)
        .unwrap()
        .chunk_records(CHUNK_RECORDS);
    let trace = TraceBuilder::new(42)
        .kernel(KernelSpec::generational(1 << 16, 3, 32))
        .build();
    writer.write_all(trace.take(RECORDS)).unwrap();
    let summary = writer.finish().unwrap();
    assert!(summary.chunks > 4, "test wants a multi-chunk file");
    buf.into_inner()
}

/// Indexes and batch-drains `bytes` twice — borrowed from memory
/// ([`BufferedTrace::from_slice`]) and streamed from a file on disk
/// ([`BufferedTrace::load`]) — and checks that both paths agree down to
/// the error variant and its fields. Returns either the clean record
/// count or the first error. The point: this must never panic.
fn drain(bytes: &[u8]) -> Result<usize, TraceIoError> {
    let in_memory = drain_trace(BufferedTrace::from_slice(bytes));
    let path = scratch_path();
    std::fs::write(&path, bytes).unwrap();
    let on_disk = drain_trace(BufferedTrace::load(&path));
    std::fs::remove_file(&path).unwrap();
    assert_eq!(
        format!("{on_disk:?}"),
        format!("{in_memory:?}"),
        "file and in-memory decode disagree"
    );
    in_memory
}

fn drain_trace(trace: Result<BufferedTrace<'_>, TraceIoError>) -> Result<usize, TraceIoError> {
    let trace = trace?;
    let mut batches = trace.batches();
    let mut n = 0;
    while let Some(batch) = batches.try_next()? {
        n += batch.len();
    }
    Ok(n)
}

/// A temp file private to the calling test thread.
fn scratch_path() -> PathBuf {
    let thread = format!("{:?}", std::thread::current().id());
    let thread: String = thread.chars().filter(char::is_ascii_digit).collect();
    std::env::temp_dir().join(format!(
        "sdbt-{}-{}-{thread}.sdbt",
        env!("CARGO_CRATE_NAME"),
        std::process::id()
    ))
}

/// Byte length of the header (through its trailing checksum).
fn header_len(bytes: &[u8]) -> usize {
    let name_len = u32::from_le_bytes(bytes[28..32].try_into().unwrap()) as usize;
    8 + 4 + 8 + 8 + 4 + name_len + 8
}

/// Start offsets of every chunk's 16-byte frame header.
fn chunk_starts(bytes: &[u8]) -> Vec<usize> {
    let mut pos = header_len(bytes);
    let mut starts = Vec::new();
    loop {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let records = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len == 0 && records == 0 {
            break;
        }
        starts.push(pos);
        pos += 16 + len;
    }
    starts
}

/// Recomputes the header checksum after a deliberate field edit, so
/// tests reach the check *behind* the checksum.
fn patch_header_checksum(bytes: &mut [u8]) {
    let body_len = header_len(bytes) - 8;
    let fnv = fnv1a(&bytes[..body_len]);
    bytes[body_len..body_len + 8].copy_from_slice(&fnv.to_le_bytes());
}

/// Local FNV-1a 64 copy: the tests forge headers the public API refuses
/// to produce.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[test]
fn healthy_v2_baseline_on_both_decode_paths() {
    let bytes = healthy_bytes(FORMAT_V2);
    assert_eq!(drain(&bytes).unwrap(), RECORDS);
}

#[test]
fn truncated_column_array_is_a_typed_error() {
    let full = healthy_bytes(FORMAT_V2);
    let first = chunk_starts(&full)[0];
    let payload_len = u32::from_le_bytes(full[first..first + 4].try_into().unwrap()) as usize;
    // Cut the file three bytes short of the first chunk's flags column
    // end — the frame header still promises the full payload.
    let cut = first + 16 + payload_len - 3;
    match drain(&full[..cut]) {
        Err(TraceIoError::Truncated { .. }) => {}
        other => panic!("expected Truncated, got {other:?}"),
    }
}

#[test]
fn column_length_mismatch_with_record_count_is_typed() {
    let full = healthy_bytes(FORMAT_V2);
    let first = chunk_starts(&full)[0];
    // Claim one extra record; the payload length stays what the writer
    // produced, so the fixed-width column math no longer closes.
    let mut bytes = full.clone();
    let records = u32::from_le_bytes(bytes[first + 4..first + 8].try_into().unwrap());
    bytes[first + 4..first + 8].copy_from_slice(&(records + 1).to_le_bytes());
    match drain(&bytes) {
        Err(TraceIoError::ColumnLength {
            chunk: 0,
            expected,
            found,
        }) => {
            assert_eq!(
                found,
                u64::from(records) * V2_RECORD_BYTES as u64 + V2_PREAMBLE_LEN as u64
            );
            assert_eq!(expected, found + V2_RECORD_BYTES as u64);
        }
        other => panic!("expected ColumnLength on chunk 0, got {other:?}"),
    }
}

#[test]
fn bad_per_column_checksum_names_the_column() {
    let full = healthy_bytes(FORMAT_V2);
    let second = chunk_starts(&full)[1];
    let records = u32::from_le_bytes(full[second + 4..second + 8].try_into().unwrap()) as usize;
    let payload = second + 16;
    // Forge each declared column checksum in the preamble, then damage
    // each column's actual bytes — all six must name the right column.
    let cases: [(usize, &str); 6] = [
        (payload, "pcs"),
        (payload + 8, "addrs"),
        (payload + 16, "flags"),
        (payload + V2_PREAMBLE_LEN + 7, "pcs"),
        (payload + V2_PREAMBLE_LEN + records * 8 + 7, "addrs"),
        // Low bits of a flags byte stay inside FLAG_MASK, so only the
        // checksum — not the record decoder — can catch this one.
        (
            payload + V2_PREAMBLE_LEN + records * 16 + records / 2,
            "flags",
        ),
    ];
    for (target, column) in cases {
        let mut bytes = full.clone();
        bytes[target] ^= 0x02;
        match drain(&bytes) {
            Err(TraceIoError::ColumnChecksum {
                chunk: 1,
                column: got,
            }) => {
                assert_eq!(got, column, "wrong column named for byte {target}");
            }
            other => panic!("byte {target} expected ColumnChecksum({column}), got {other:?}"),
        }
    }
}

#[test]
fn forged_chunk_checksum_surfaces_at_the_trailer() {
    // v2 folds the *declared* chunk checksum into the global hash (the
    // column checksums already cover the payload bytes), so forging it
    // leaves every column valid and detection moves to the end marker.
    let full = healthy_bytes(FORMAT_V2);
    let first = chunk_starts(&full)[0];
    let mut bytes = full.clone();
    bytes[first + 8] ^= 0x80; // low byte of the declared payload FNV
    match drain(&bytes) {
        Err(TraceIoError::TrailerChecksum) => {}
        other => panic!("expected TrailerChecksum, got {other:?}"),
    }
}

#[test]
fn v2_magic_over_a_v1_body_is_rejected() {
    // A v1 varint body re-labelled as v2: the chunk payload lengths can
    // never satisfy the fixed-width column math, so the mismatch is
    // caught on the first chunk — typed, before any record decodes.
    let mut bytes = healthy_bytes(FORMAT_V1);
    bytes[8..12].copy_from_slice(&FORMAT_V2.to_le_bytes());
    patch_header_checksum(&mut bytes);
    match drain(&bytes) {
        Err(TraceIoError::ColumnLength { chunk: 0, .. }) => {}
        other => panic!("expected ColumnLength on chunk 0, got {other:?}"),
    }
}

#[test]
fn byte_flip_fuzz_never_panics_and_validate_never_lies() {
    // Fixed-seed single-bit flips across the whole file. Every byte of a
    // v2 file is covered by some check (header FNV, column FNVs, frame
    // fields, trailer fold), and so is every byte of a v1 file (header
    // FNV, chunk FNVs, frame record counts against the header count), so
    // every flip must be an error — not a panic and not a clean decode.
    for version in [FORMAT_V1, FORMAT_V2] {
        let full = healthy_bytes(version);
        let mut rng = Rng64::seed_from_u64(0xf1b);
        for round in 0..400 {
            let pos = rng.gen_range(0..full.len() as u64) as usize;
            let bit = 1u8 << rng.gen_range(0..8u64);
            let mut bytes = full.clone();
            bytes[pos] ^= bit;
            assert!(
                drain(&bytes).is_err(),
                "v{version}: round {round} flipped bit {bit:#04x} at byte {pos} undetected"
            );
        }
    }
}
