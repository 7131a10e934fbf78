//! [`TraceSource`] — a named, re-openable instruction stream.
//!
//! A benchmark's synthetic generator lives above this crate
//! (`sdbp-workloads`), so it reaches consumers that only know this crate
//! as a [`TraceSource`]: a workload name and the ability to open a fresh
//! pass over the stream from the beginning. Recorded `.sdbt` trace files
//! are not sources: they decode through `sdbp-traceio`'s `BufferedTrace`
//! into [`InstrBatch`](crate::batch::InstrBatch)es, which the recorder
//! consumes directly.
//!
//! The items are `Result`s with plain-string errors, so a fallible
//! producer fits the same signature; generators like
//! [`SyntheticTrace`](crate::SyntheticTrace) simply never yield `Err`.

use crate::access::Instr;
use std::fmt;

/// A fresh pass over a source's instruction stream.
///
/// Boxed and `Send` so a stream can be opened inside an `sdbp-engine`
/// worker job.
pub type InstrStream<'a> = Box<dyn Iterator<Item = Result<Instr, String>> + Send + 'a>;

/// A (re-)openable source of instruction streams.
///
/// Implementations must be deterministic: two calls to [`open`] yield
/// identical streams, which is what makes `record → replay` byte-exact.
///
/// [`open`]: TraceSource::open
pub trait TraceSource: fmt::Debug + Send {
    /// Human-readable workload name (benchmark name in result tables).
    fn name(&self) -> &str;

    /// Opens a fresh stream from the beginning.
    ///
    /// # Errors
    ///
    /// Returns a message when the source cannot be opened at all.
    fn open(&self) -> Result<InstrStream<'_>, String>;
}

/// A synthetic source: a named, seeded generator function.
///
/// Wraps a closure producing a fresh infinite iterator per call, so the
/// benchmark suite (which lives above this crate) can hand its workloads
/// to any [`TraceSource`] consumer without a dependency cycle.
///
/// ```
/// use sdbp_trace::kernel::KernelSpec;
/// use sdbp_trace::source::{GeneratorSource, TraceSource};
/// use sdbp_trace::TraceBuilder;
///
/// let src = GeneratorSource::new("hot", || {
///     TraceBuilder::new(7).kernel(KernelSpec::hot_set(4096)).build()
/// });
/// let first: Vec<_> = src.open().unwrap().take(10).collect();
/// let again: Vec<_> = src.open().unwrap().take(10).collect();
/// assert_eq!(first.len(), 10);
/// assert!(first.iter().zip(&again).all(|(a, b)| a == b));
/// ```
pub struct GeneratorSource<F> {
    name: String,
    build: F,
}

impl<F, I> GeneratorSource<F>
where
    F: Fn() -> I + Send,
    I: Iterator<Item = Instr> + Send + 'static,
{
    /// Wraps `build`, a function returning a fresh iterator per call.
    pub fn new(name: impl Into<String>, build: F) -> Self {
        GeneratorSource {
            name: name.into(),
            build,
        }
    }
}

impl<F> fmt::Debug for GeneratorSource<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GeneratorSource")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl<F, I> TraceSource for GeneratorSource<F>
where
    F: Fn() -> I + Send,
    I: Iterator<Item = Instr> + Send + 'static,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn open(&self) -> Result<InstrStream<'_>, String> {
        Ok(Box::new((self.build)().map(Ok)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelSpec;
    use crate::TraceBuilder;

    fn hot_source() -> impl TraceSource {
        GeneratorSource::new("hot", || {
            TraceBuilder::new(11)
                .kernel(KernelSpec::hot_set(1 << 14))
                .build()
        })
    }

    #[test]
    fn generator_source_reopens_identically() {
        let src = hot_source();
        assert_eq!(src.name(), "hot");
        let a: Vec<_> = src.open().unwrap().take(500).map(Result::unwrap).collect();
        let b: Vec<_> = src.open().unwrap().take(500).map(Result::unwrap).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn generator_source_is_object_safe() {
        let boxed: Box<dyn TraceSource> = Box::new(hot_source());
        assert!(boxed.open().unwrap().next().is_some());
    }
}
