//! Corrupted-input tests: every class of damage — truncation at any byte,
//! wrong magic, a flipped payload bit, a format version from the future —
//! must surface as a typed [`TraceIoError`] from the streaming reader,
//! never a panic and never silently-wrong records.

use sdbp_trace::kernel::KernelSpec;
use sdbp_trace::TraceBuilder;
use sdbp_traceio::{Integrity, TraceIoError, TraceMeta, TraceReader, TraceWriter};
use std::io::Cursor;

const RECORDS: usize = 5000;

/// A small healthy trace spanning several chunks.
fn healthy_bytes() -> Vec<u8> {
    let mut buf = Cursor::new(Vec::new());
    let mut writer = TraceWriter::new(&mut buf, TraceMeta::new("victim", 42))
        .unwrap()
        .chunk_records(512);
    let trace = TraceBuilder::new(42).kernel(KernelSpec::generational(1 << 16, 3, 32)).build();
    writer.write_all(trace.take(RECORDS)).unwrap();
    let summary = writer.finish().unwrap();
    assert!(summary.chunks > 4, "test wants a multi-chunk file");
    buf.into_inner()
}

/// Drains a reader over `bytes`, returning either the clean record count
/// or the first error. The point: this must never panic.
fn drain(bytes: Vec<u8>, integrity: Integrity) -> Result<usize, TraceIoError> {
    let reader = TraceReader::with_integrity(Cursor::new(bytes), integrity)?;
    let mut n = 0;
    for item in reader {
        item?;
        n += 1;
    }
    Ok(n)
}

#[test]
fn healthy_file_baseline() {
    assert_eq!(drain(healthy_bytes(), Integrity::Validate).unwrap(), RECORDS);
    assert_eq!(drain(healthy_bytes(), Integrity::Fast).unwrap(), RECORDS);
}

#[test]
fn truncation_at_every_prefix_is_a_typed_error_not_a_panic() {
    let full = healthy_bytes();
    // Sweep a prefix through the header, first chunks, and the tail; step
    // coarsely through the middle so the test stays fast.
    let mut cuts: Vec<usize> = (0..200.min(full.len())).collect();
    cuts.extend((200..full.len()).step_by(97));
    cuts.push(full.len() - 1);
    for cut in cuts {
        let err = drain(full[..cut].to_vec(), Integrity::Validate)
            .expect_err(&format!("cut at {cut} must fail"));
        assert!(
            matches!(
                err,
                TraceIoError::Truncated { .. }
                    | TraceIoError::HeaderCorrupt { .. }
                    | TraceIoError::BadMagic { .. }
            ),
            "cut at {cut}: unexpected error class {err}"
        );
    }
}

#[test]
fn bad_magic_is_rejected_up_front() {
    let mut bytes = healthy_bytes();
    bytes[0..8].copy_from_slice(b"NOTATRCE");
    match drain(bytes, Integrity::Validate) {
        Err(TraceIoError::BadMagic { found }) => assert_eq!(&found, b"NOTATRCE"),
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn future_format_version_is_rejected_with_both_versions_named() {
    let mut bytes = healthy_bytes();
    // Version field sits right after the 8-byte magic.
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    // Keep the header checksum consistent so the *version* check fires,
    // not the checksum check: recompute it over magic..name.
    patch_header_checksum(&mut bytes);
    match drain(bytes, Integrity::Validate) {
        Err(TraceIoError::UnsupportedVersion { found: 99, supported }) => {
            assert_eq!(supported, sdbp_traceio::FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn tampered_header_fails_its_checksum() {
    let mut bytes = healthy_bytes();
    bytes[12] ^= 0x01; // seed byte
    match drain(bytes, Integrity::Validate) {
        Err(TraceIoError::HeaderCorrupt { .. }) => {}
        other => panic!("expected HeaderCorrupt, got {other:?}"),
    }
}

#[test]
fn flipped_payload_bit_fails_the_chunk_checksum() {
    let full = healthy_bytes();
    let header_len = header_len(&full);
    // Flip one bit somewhere inside the second chunk's payload.
    let mut bytes = full.clone();
    let first_payload_len =
        u32::from_le_bytes(bytes[header_len..header_len + 4].try_into().unwrap()) as usize;
    let second_chunk_start = header_len + 16 + first_payload_len;
    let target = second_chunk_start + 16 + 10;
    bytes[target] ^= 0x40;
    match drain(bytes, Integrity::Validate) {
        Err(TraceIoError::ChunkChecksum { chunk: 1 }) => {}
        other => panic!("expected ChunkChecksum on chunk 1, got {other:?}"),
    }
}

#[test]
fn fast_mode_still_catches_structural_damage() {
    // Fast mode skips checksums, so a flipped bit may decode (garbage in,
    // garbage out) — but truncation must still be typed, never a panic.
    let full = healthy_bytes();
    let err = drain(full[..full.len() / 2].to_vec(), Integrity::Fast).unwrap_err();
    assert!(matches!(err, TraceIoError::Truncated { .. }), "{err}");
}

#[test]
fn corrupted_count_field_is_detected_at_end_of_stream() {
    let mut bytes = healthy_bytes();
    // Count sits at offset 20 (magic 8 + version 4 + seed 8).
    let wrong = (RECORDS as u64 + 1).to_le_bytes();
    bytes[20..28].copy_from_slice(&wrong);
    patch_header_checksum(&mut bytes);
    // The records themselves are intact, so the count mismatch surfaces at
    // the end marker. In Fast mode too — it is structural, not a checksum.
    for integrity in [Integrity::Validate, Integrity::Fast] {
        match drain(bytes.clone(), integrity) {
            Err(TraceIoError::CountMismatch { header, decoded }) => {
                assert_eq!(header, RECORDS as u64 + 1);
                assert_eq!(decoded, RECORDS as u64);
            }
            other => panic!("{integrity:?}: expected CountMismatch, got {other:?}"),
        }
    }
}

#[test]
fn undercounting_header_is_a_typed_error_when_collected() {
    // A header claiming fewer records than the file holds: `collect`
    // consults `size_hint` as it grows the vector, so the reader must
    // not assume `decoded <= count`.
    for header in [0u64, 2] {
        let mut bytes = healthy_bytes();
        bytes[20..28].copy_from_slice(&header.to_le_bytes());
        patch_header_checksum(&mut bytes);
        for integrity in [Integrity::Validate, Integrity::Fast] {
            let reader = TraceReader::with_integrity(Cursor::new(bytes.clone()), integrity)
                .expect("header parses");
            match reader.collect::<Result<Vec<_>, _>>() {
                Err(TraceIoError::CountMismatch { header: h, decoded }) => {
                    assert_eq!(h, header);
                    assert_eq!(decoded, RECORDS as u64);
                }
                other => panic!("{integrity:?}, count {header}: expected CountMismatch, got {other:?}"),
            }
        }
    }
}

#[test]
fn errors_fuse_the_iterator() {
    let full = healthy_bytes();
    let mut reader =
        TraceReader::new(Cursor::new(full[..full.len() / 2].to_vec())).unwrap();
    let mut saw_err = false;
    for item in reader.by_ref() {
        if item.is_err() {
            saw_err = true;
            break;
        }
    }
    assert!(saw_err);
    assert!(reader.next().is_none(), "iterator must fuse after an error");
    assert!(reader.next().is_none());
}

/// Byte length of the header (through its trailing checksum).
fn header_len(bytes: &[u8]) -> usize {
    let name_len = u32::from_le_bytes(bytes[28..32].try_into().unwrap()) as usize;
    8 + 4 + 8 + 8 + 4 + name_len + 8
}

/// Recomputes the header checksum after a deliberate field edit, so tests
/// reach the check *behind* the checksum.
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
