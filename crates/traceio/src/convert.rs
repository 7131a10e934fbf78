//! Lossless `.sdbt` version conversion (v1 ↔ v2).
//!
//! Both layouts carry exactly the same record stream — a flags byte, a
//! PC and (for memory records) an address per instruction — so
//! conversion is a decode → re-encode pass that preserves the workload
//! name, seed and record count and changes only the payload encoding.
//! v1 is the compact archival form (varint + delta, ~4.4 bytes/access);
//! v2 is the fixed-width columnar replay form (17 bytes/access, decoded
//! in bulk). `sdbp-repro trace convert` is the CLI front end.

use crate::buffered::BufferedTrace;
use crate::error::TraceIoError;
use crate::format::TraceMeta;
use crate::writer::{TraceWriter, WriteSummary};
use std::fs::File;
use std::io::{BufWriter, Seek, Write};
use std::path::{Path, PathBuf};

/// What a conversion amounted to.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct ConvertSummary {
    /// Container version of the source file.
    pub from_version: u32,
    /// Container version written.
    pub to_version: u32,
    /// The write-side summary (records, chunks, output bytes).
    pub write: WriteSummary,
}

/// Re-encodes every record of `trace` into a fresh container of
/// `target_version` written to `out`.
///
/// # Errors
///
/// Any record-level decode error from the source (its frames and
/// checksums were validated when it was indexed) and any write error
/// from the sink; an unencodable `target_version` is rejected up front
/// as [`TraceIoError::UnsupportedVersion`].
pub fn convert_stream<W: Write + Seek>(
    trace: &BufferedTrace<'_>,
    out: W,
    target_version: u32,
) -> Result<ConvertSummary, TraceIoError> {
    let from = trace.meta();
    let meta = TraceMeta::new(from.name.clone(), from.seed).with_version(target_version);
    let mut writer = TraceWriter::new(out, meta)?;
    let mut batches = trace.batches();
    while let Some(batch) = batches.try_next()? {
        writer.write_all(batch.iter())?;
    }
    let write = writer.finish()?;
    Ok(ConvertSummary {
        from_version: from.version,
        to_version: target_version,
        write,
    })
}

/// Converts the file at `src` into `dst` with `target_version`. `src`
/// is read chunk by chunk while the output goes to a `.partial` sibling
/// of `dst`, which is renamed onto `dst` only once it is complete, so
/// converting a file onto itself is safe and a failed conversion leaves
/// `dst` untouched.
///
/// # Errors
///
/// As [`convert_stream`], plus filesystem errors on either path.
pub fn convert_path(
    src: &Path,
    dst: &Path,
    target_version: u32,
) -> Result<ConvertSummary, TraceIoError> {
    let trace = BufferedTrace::load(src)?;
    let mut partial = dst.as_os_str().to_owned();
    partial.push(".partial");
    let partial = PathBuf::from(partial);
    let converted = (|| -> Result<ConvertSummary, TraceIoError> {
        let out = BufWriter::new(File::create(&partial)?);
        let summary = convert_stream(&trace, out, target_version)?;
        std::fs::rename(&partial, dst)?;
        Ok(summary)
    })();
    if converted.is_err() {
        #[expect(
            clippy::unused_result_ok,
            reason = "best-effort cleanup; the conversion error is what the caller needs"
        )]
        std::fs::remove_file(&partial).ok();
    }
    converted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{DEFAULT_CHUNK_RECORDS, FORMAT_V1, FORMAT_V2};
    use sdbp_trace::kernel::KernelSpec;
    use sdbp_trace::{Instr, TraceBuilder};
    use std::io::Cursor;

    fn instrs(n: usize) -> Vec<Instr> {
        TraceBuilder::new(0xc0dec)
            .kernel(KernelSpec::hot_set(1 << 14))
            .kernel(KernelSpec::streaming(1 << 20))
            .build()
            .take(n)
            .collect()
    }

    fn encode_v1(n: usize) -> Vec<u8> {
        let mut buf = Cursor::new(Vec::new());
        let mut w = TraceWriter::new(&mut buf, TraceMeta::new("conv", 0xc0dec)).unwrap();
        w.write_all(instrs(n)).unwrap();
        w.finish().unwrap();
        buf.into_inner()
    }

    fn decode(bytes: &[u8]) -> (TraceMeta, Vec<Instr>) {
        let trace = BufferedTrace::from_slice(bytes).unwrap();
        let mut records = Vec::new();
        let mut batches = trace.batches();
        while let Some(batch) = batches.try_next().unwrap() {
            records.extend(batch.iter());
        }
        (trace.meta().clone(), records)
    }

    fn buffered(bytes: &[u8]) -> BufferedTrace<'_> {
        BufferedTrace::from_slice(bytes).unwrap()
    }

    /// The v1 -> v2 -> batch-decode -> v1 pipeline at the default
    /// chunking, over two full chunks plus a partial one, so every
    /// chunk seam is crossed in both codecs.
    #[test]
    fn v1_to_v2_and_back_is_lossless() {
        let n = 2 * DEFAULT_CHUNK_RECORDS as usize + 1234;
        let original = instrs(n);
        let v1 = encode_v1(n);
        let mut v2 = Cursor::new(Vec::new());
        let up = convert_stream(&buffered(&v1), &mut v2, FORMAT_V2).unwrap();
        assert_eq!((up.from_version, up.to_version), (FORMAT_V1, FORMAT_V2));
        assert_eq!(up.write.instructions, n as u64);
        let v2 = v2.into_inner();

        let (meta2, records2) = decode(&v2);
        assert_eq!(meta2.version, FORMAT_V2);
        assert_eq!(meta2.name, "conv");
        assert_eq!(meta2.seed, 0xc0dec);
        assert_eq!(records2, original);

        assert!(
            buffered(&v2).chunk_count() > 1,
            "the v2 file must span several chunks"
        );

        let mut back = Cursor::new(Vec::new());
        convert_stream(&buffered(&v2), &mut back, FORMAT_V1).unwrap();
        assert_eq!(
            back.into_inner(),
            v1,
            "v1 -> v2 -> v1 must reproduce the v1 bytes"
        );
    }

    #[test]
    fn converting_a_file_onto_itself_is_safe() {
        let path =
            std::env::temp_dir().join(format!("sdbt-convert-{}-in-place.sdbt", std::process::id()));
        std::fs::write(&path, encode_v1(5000)).unwrap();
        convert_path(&path, &path, FORMAT_V2).unwrap();
        let (meta, records) = decode(&std::fs::read(&path).unwrap());
        assert_eq!(meta.version, FORMAT_V2);
        assert_eq!(records, instrs(5000));
        #[expect(
            clippy::unused_result_ok,
            reason = "best-effort temp cleanup; a leftover file is harmless"
        )]
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn conversion_to_unknown_version_is_rejected() {
        let v1 = encode_v1(10);
        let err = convert_stream(&buffered(&v1), Cursor::new(Vec::new()), 7).unwrap_err();
        assert!(matches!(
            err,
            TraceIoError::UnsupportedVersion { found: 7, .. }
        ));
    }

    #[test]
    fn v2_size_is_the_fixed_width_footprint() {
        let n = 3000usize;
        let v1 = encode_v1(n);
        let mut v2 = Cursor::new(Vec::new());
        let up = convert_stream(&buffered(&v1), &mut v2, FORMAT_V2).unwrap();
        // 17 bytes per record plus header/framing: columnar trades size
        // for decode speed, which is why v1 stays the archival format.
        assert!(up.write.bytes_per_access() > 17.0);
        assert!(up.write.bytes_per_access() < 18.0);
        assert!(v1.len() < v2.into_inner().len());
    }
}
