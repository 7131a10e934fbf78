//! [`FileSource`] — a recorded `.sdbt` file as a re-openable
//! [`TraceSource`], the streamed-file half of the generator-or-file
//! choice.

use crate::buffered::BufferedTrace;
use crate::error::TraceIoError;
use crate::format::TraceMeta;
use crate::reader::{Integrity, TraceReader};
use sdbp_trace::{BatchStream, InstrStream, TraceSource};
use std::path::{Path, PathBuf};

/// A trace file as a workload source.
///
/// Construction validates the header once (so a missing or foreign file
/// fails loudly, up front); each [`TraceSource::open`] then streams a
/// fresh validating pass over the records with O(chunk) memory. Typed
/// errors degrade to strings at this boundary — callers who need the
/// full [`TraceIoError`] taxonomy use [`TraceReader`] directly.
#[derive(Clone, Debug)]
pub struct FileSource {
    path: PathBuf,
    meta: TraceMeta,
}

impl FileSource {
    /// Validates `path`'s header and wraps it as a source.
    ///
    /// # Errors
    ///
    /// Any header defect or filesystem error, as [`TraceReader::open`].
    pub fn new(path: &Path) -> Result<Self, TraceIoError> {
        let reader = TraceReader::open_with(path, Integrity::Fast)?;
        Ok(FileSource { path: path.to_path_buf(), meta: reader.meta().clone() })
    }

    /// The validated trace metadata.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// The underlying file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl TraceSource for FileSource {
    fn name(&self) -> &str {
        &self.meta.name
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.meta.count)
    }

    fn open(&self) -> Result<InstrStream<'_>, String> {
        let reader = TraceReader::open(&self.path)
            .map_err(|e| format!("{}: {e}", self.path.display()))?;
        let path = self.path.clone();
        Ok(Box::new(
            reader.map(move |r| r.map_err(|e| format!("{}: {e}", path.display()))),
        ))
    }

    fn open_batched(&self) -> Result<Option<BatchStream<'_>>, String> {
        // Buffer the whole file and hand out column batches: the fast
        // door for both layouts (v2 decodes zero-copy, v1 through the
        // varint codec into scratch). Validation happens at load, so
        // most corruption fails here rather than mid-replay.
        let trace = BufferedTrace::load(&self.path)
            .map_err(|e| format!("{}: {e}", self.path.display()))?;
        Ok(Some(Box::new(trace.into_batches())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::TraceWriter;
    use sdbp_trace::kernel::KernelSpec;
    use sdbp_trace::TraceBuilder;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("sdbt-source-{}-{name}", std::process::id()))
    }

    #[test]
    fn file_source_reopens_identically_and_reports_len() {
        let path = tmp("reopen.sdbt");
        let mut w = TraceWriter::create(&path, TraceMeta::new("hot", 5)).unwrap();
        let instrs: Vec<_> = TraceBuilder::new(5)
            .kernel(KernelSpec::hot_set(1 << 12))
            .build()
            .take(3000)
            .collect();
        w.write_all(instrs.iter().copied()).unwrap();
        w.finish().unwrap();

        let src = FileSource::new(&path).unwrap();
        assert_eq!(src.name(), "hot");
        assert_eq!(src.len_hint(), Some(3000));
        let a: Vec<_> =
            src.open().unwrap().collect::<Result<_, _>>().expect("clean stream");
        let b: Vec<_> =
            src.open().unwrap().collect::<Result<_, _>>().expect("clean stream");
        assert_eq!(a, instrs);
        assert_eq!(a, b);
        #[expect(
            clippy::unused_result_ok,
            reason = "best-effort temp cleanup; a leftover file is harmless"
        )]
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn batched_pass_matches_the_per_record_stream() {
        let path = tmp("batched.sdbt");
        let meta = TraceMeta::new("hot", 9).with_version(crate::format::FORMAT_V2);
        let mut w = TraceWriter::create(&path, meta).unwrap().chunk_records(256);
        let instrs: Vec<_> = TraceBuilder::new(9)
            .kernel(KernelSpec::hot_set(1 << 12))
            .build()
            .take(2000)
            .collect();
        w.write_all(instrs.iter().copied()).unwrap();
        w.finish().unwrap();

        let src = FileSource::new(&path).unwrap();
        let streamed: Vec<_> =
            src.open().unwrap().collect::<Result<_, _>>().expect("clean stream");
        let mut batcher = src.open_batched().unwrap().expect("file sources batch");
        let mut batched = Vec::new();
        while let Some(batch) = batcher.next_batch().unwrap() {
            batched.extend(batch.iter());
        }
        assert_eq!(batched, streamed);
        assert_eq!(batched, instrs);
        #[expect(
            clippy::unused_result_ok,
            reason = "best-effort temp cleanup; a leftover file is harmless"
        )]
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_fails_at_construction() {
        assert!(FileSource::new(Path::new("/nonexistent/nope.sdbt")).is_err());
    }
}
