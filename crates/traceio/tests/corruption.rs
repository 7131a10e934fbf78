//! Corrupted-input tests: every class of damage — truncation at any byte,
//! wrong magic, a flipped payload bit, a format version from the future,
//! a header that miscounts its records — must surface as a typed
//! [`TraceIoError`] from [`BufferedTrace`], for both container versions,
//! never a panic and never silently-wrong records. The v2-only column
//! checks live in `corruption_v2.rs`.

use sdbp_trace::kernel::KernelSpec;
use sdbp_trace::TraceBuilder;
use sdbp_traceio::{
    BufferedTrace, ColumnScratch, TraceIoError, TraceMeta, TraceWriter, FORMAT_V1, FORMAT_V2,
};
use std::fs::OpenOptions;
use std::io::Cursor;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;

const RECORDS: usize = 5000;

/// A small healthy trace spanning several chunks, in the given format.
fn healthy_bytes(version: u32) -> Vec<u8> {
    let mut buf = Cursor::new(Vec::new());
    let meta = TraceMeta::new("victim", 42).with_version(version);
    let mut writer = TraceWriter::new(&mut buf, meta).unwrap().chunk_records(512);
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

#[test]
fn healthy_file_baseline() {
    for version in [FORMAT_V1, FORMAT_V2] {
        assert_eq!(
            drain(&healthy_bytes(version)).unwrap(),
            RECORDS,
            "v{version}"
        );
    }
}

#[test]
fn file_batches_equal_in_memory_batches() {
    for version in [FORMAT_V1, FORMAT_V2] {
        let bytes = healthy_bytes(version);
        let path = scratch_path();
        std::fs::write(&path, &bytes).unwrap();
        let on_disk = BufferedTrace::load(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let in_memory = BufferedTrace::from_slice(&bytes).unwrap();
        assert_eq!(on_disk.meta(), in_memory.meta());
        assert_eq!(on_disk.chunk_stats(), in_memory.chunk_stats());
        assert_eq!(on_disk.byte_len(), bytes.len() as u64);
        let (mut a, mut b) = (on_disk.batches(), in_memory.batches());
        let mut chunks = 0;
        while let Some(batch) = a.try_next().unwrap() {
            let other = b.try_next().unwrap().expect("same chunk count");
            assert_eq!(batch.flags(), other.flags(), "v{version} chunk {chunks}");
            assert_eq!(batch.pcs(), other.pcs(), "v{version} chunk {chunks}");
            assert_eq!(batch.addrs(), other.addrs(), "v{version} chunk {chunks}");
            chunks += 1;
        }
        assert!(b.try_next().unwrap().is_none());
        assert_eq!(chunks, in_memory.chunk_count());
    }
}

#[test]
fn file_changed_after_load_fails_only_the_changed_chunk() {
    for version in [FORMAT_V1, FORMAT_V2] {
        let mut buf = Cursor::new(Vec::new());
        let meta = TraceMeta::new("victim", 42).with_version(version);
        let mut writer = TraceWriter::new(&mut buf, meta)
            .unwrap()
            .chunk_records(1000);
        let trace = TraceBuilder::new(42)
            .kernel(KernelSpec::generational(1 << 16, 3, 32))
            .build();
        writer.write_all(trace.take(2500)).unwrap();
        assert_eq!(writer.finish().unwrap().chunks, 3);
        let bytes = buf.into_inner();
        let want = BufferedTrace::from_slice(&bytes).unwrap();
        let path = scratch_path();
        std::fs::write(&path, &bytes).unwrap();
        let trace = BufferedTrace::load(&path).unwrap();

        // Flip a byte deep inside chunk 2's payload (index 1), on disk.
        let first_len = u32::from_le_bytes(
            bytes[header_len(&bytes)..header_len(&bytes) + 4]
                .try_into()
                .unwrap(),
        ) as u64;
        let target = header_len(&bytes) as u64 + 16 + first_len + 16 + 200;
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        let byte = bytes[target as usize] ^ 0x01;
        file.write_all_at(&[byte], target).unwrap();

        let (mut got, mut reference) = (ColumnScratch::default(), ColumnScratch::default());
        for index in [0, 2] {
            let batch = trace.batch(index, &mut got).unwrap();
            let other = want.batch(index, &mut reference).unwrap();
            assert!(batch.iter().eq(other.iter()), "v{version} chunk {index}");
        }
        match (version, trace.batch(1, &mut got)) {
            (FORMAT_V1, Err(TraceIoError::ChunkChecksum { chunk: 1 }))
            | (FORMAT_V2, Err(TraceIoError::ColumnChecksum { chunk: 1, .. })) => {}
            (_, Err(other)) => panic!("v{version}: unexpected error {other:?}"),
            (_, Ok(_)) => panic!("v{version}: changed chunk decoded"),
        }

        // A file cut short after loading fails its last chunk as truncated.
        file.set_len(target).unwrap();
        match trace.batch(2, &mut got) {
            Err(TraceIoError::Truncated { .. }) => {}
            other => panic!("v{version}: expected Truncated, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn truncation_at_every_prefix_is_a_typed_error_not_a_panic() {
    for version in [FORMAT_V1, FORMAT_V2] {
        let full = healthy_bytes(version);
        // Sweep a prefix through the header, first chunks, and the tail;
        // step coarsely through the middle so the test stays fast.
        let mut cuts: Vec<usize> = (0..200.min(full.len())).collect();
        cuts.extend((200..full.len()).step_by(97));
        cuts.push(full.len() - 1);
        for cut in cuts {
            let err =
                drain(&full[..cut]).expect_err(&format!("v{version}: cut at {cut} must fail"));
            assert!(
                matches!(
                    err,
                    TraceIoError::Truncated { .. }
                        | TraceIoError::HeaderCorrupt { .. }
                        | TraceIoError::BadMagic { .. }
                ),
                "v{version}: cut at {cut}: unexpected error class {err}"
            );
        }
    }
}

#[test]
fn bad_magic_is_rejected_up_front() {
    for version in [FORMAT_V1, FORMAT_V2] {
        let mut bytes = healthy_bytes(version);
        bytes[0..8].copy_from_slice(b"NOTATRCE");
        match drain(&bytes) {
            Err(TraceIoError::BadMagic { found }) => assert_eq!(&found, b"NOTATRCE"),
            other => panic!("v{version}: expected BadMagic, got {other:?}"),
        }
    }
}

#[test]
fn future_format_version_is_rejected_with_both_versions_named() {
    for version in [FORMAT_V1, FORMAT_V2] {
        let mut bytes = healthy_bytes(version);
        // Version field sits right after the 8-byte magic.
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        // Keep the header checksum consistent so the *version* check
        // fires, not the checksum check: recompute it over magic..name.
        patch_header_checksum(&mut bytes);
        match drain(&bytes) {
            Err(TraceIoError::UnsupportedVersion {
                found: 99,
                supported,
            }) => {
                assert_eq!(supported, sdbp_traceio::FORMAT_VERSION);
            }
            other => panic!("v{version}: expected UnsupportedVersion, got {other:?}"),
        }
    }
}

#[test]
fn tampered_header_fails_its_checksum() {
    for version in [FORMAT_V1, FORMAT_V2] {
        let mut bytes = healthy_bytes(version);
        bytes[12] ^= 0x01; // seed byte
        match drain(&bytes) {
            Err(TraceIoError::HeaderCorrupt { .. }) => {}
            other => panic!("v{version}: expected HeaderCorrupt, got {other:?}"),
        }
    }
}

#[test]
fn flipped_payload_bit_fails_the_chunk_checksum() {
    // v1 checksums each chunk payload whole; the v2 equivalent (a
    // per-column checksum naming the column) is pinned in
    // `corruption_v2.rs`.
    let full = healthy_bytes(FORMAT_V1);
    let header_len = header_len(&full);
    // Flip one bit somewhere inside the second chunk's payload.
    let mut bytes = full.clone();
    let first_payload_len =
        u32::from_le_bytes(bytes[header_len..header_len + 4].try_into().unwrap()) as usize;
    let second_chunk_start = header_len + 16 + first_payload_len;
    let target = second_chunk_start + 16 + 10;
    bytes[target] ^= 0x40;
    match drain(&bytes) {
        Err(TraceIoError::ChunkChecksum { chunk: 1 }) => {}
        other => panic!("expected ChunkChecksum on chunk 1, got {other:?}"),
    }
}

#[test]
fn corrupted_count_field_is_detected_at_end_of_stream() {
    for version in [FORMAT_V1, FORMAT_V2] {
        let mut bytes = healthy_bytes(version);
        // Count sits at offset 20 (magic 8 + version 4 + seed 8).
        let wrong = (RECORDS as u64 + 1).to_le_bytes();
        bytes[20..28].copy_from_slice(&wrong);
        patch_header_checksum(&mut bytes);
        // The records themselves are intact, so the count mismatch
        // surfaces at the end marker.
        match drain(&bytes) {
            Err(TraceIoError::CountMismatch { header, decoded }) => {
                assert_eq!(header, RECORDS as u64 + 1);
                assert_eq!(decoded, RECORDS as u64);
            }
            other => panic!("v{version}: expected CountMismatch, got {other:?}"),
        }
    }
}

#[test]
fn undercounting_header_is_a_typed_error_when_collected() {
    // A header claiming fewer records than the file holds: the decoder
    // must not assume the file stops where the header says it does.
    for version in [FORMAT_V1, FORMAT_V2] {
        for header in [0u64, 2] {
            let mut bytes = healthy_bytes(version);
            bytes[20..28].copy_from_slice(&header.to_le_bytes());
            patch_header_checksum(&mut bytes);
            match drain(&bytes) {
                Err(TraceIoError::CountMismatch { header: h, decoded }) => {
                    assert_eq!(h, header);
                    assert_eq!(decoded, RECORDS as u64);
                }
                other => {
                    panic!("v{version}, count {header}: expected CountMismatch, got {other:?}")
                }
            }
        }
    }
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
