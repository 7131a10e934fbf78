//! In-memory spans recorded from the benchmark's own code around each call
//! into a library crate. A span's name is `layer.detail`, where the layer
//! is the crate (`traceio`, `cache`, `cpu`, ...). Spans nest through an
//! open-span stack, so each one records the span that caused it, and a
//! layer's self time is its spans' durations minus the part covered by
//! their children.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `layer.detail`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Work units the span processed (accesses, instructions, jobs).
    pub work: u64,
}

impl Span {
    /// The span's layer: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when on; every call is a no-op when off, so an untraced
/// run executes the same code with nothing recorded.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (`None` when tracing is off).
#[derive(Debug)]
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            work: 0,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes `span`, crediting it with `work` units.
    pub fn exit(&mut self, span: Open, work: u64) {
        let Some(id) = span.0 else { return };
        let end_ns = self.now_ns();
        if let Some(s) = self.spans.get_mut(id) {
            s.end_ns = end_ns;
            s.work = work;
        }
        if let Some(pos) = self.open.iter().rposition(|&o| o == id) {
            self.open.truncate(pos);
        }
    }

    /// Runs `f` inside a leaf span credited with `work` units.
    pub fn span<R>(&mut self, name: &'static str, work: u64, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let out = f();
        self.exit(open, work);
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of span `id`: its duration minus the union of its direct
/// children's intervals, each clipped to the parent.
pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    let Some(parent) = spans.get(id) else {
        return 0;
    };
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    children.sort_unstable();
    let mut covered = 0u64;
    let mut reach = parent.start_ns;
    for (a, b) in children {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    parent.duration_ns().saturating_sub(covered)
}

/// Per-name totals over a span list.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Totals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, in ns.
    pub total_ns: u64,
    /// Sum of their self times, in ns.
    pub self_ns: u64,
    /// Sum of their work units.
    pub work: u64,
}

impl Totals {
    /// Total duration in seconds.
    pub fn secs(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }

    /// Work units per second of total duration, in millions.
    pub fn mega_per_s(&self) -> f64 {
        if self.total_ns == 0 {
            0.0
        } else {
            self.work as f64 * 1e3 / self.total_ns as f64
        }
    }
}

/// Totals keyed by span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (id, s) in spans.iter().enumerate() {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns(spans, id);
        t.work += s.work;
    }
    out
}

/// Self time per layer, in ns.
pub fn self_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (id, s) in spans.iter().enumerate() {
        *out.entry(s.layer()).or_insert(0) += self_ns(spans, id);
    }
    out
}

/// Measured cost of recording one span (enter + exit), in ns.
pub fn span_cost_ns() -> f64 {
    const N: u32 = 100_000;
    let mut t = Tracer::new(true);
    let start = Instant::now();
    for _ in 0..N {
        let open = t.enter("bench.calibrate");
        t.exit(open, 1);
    }
    start.elapsed().as_nanos() as f64 / f64::from(N)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            work: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("bench.job", 0, 100, None),
            span("cache.replay", 10, 40, Some(0)),
            span("cpu.timing", 50, 70, Some(0)),
        ];
        assert_eq!(self_ns(&spans, 0), 50);
        assert_eq!(self_ns(&spans, 1), 30);
        let layers = self_by_layer(&spans);
        assert_eq!(layers.get("bench"), Some(&50));
        assert_eq!(layers.get("cache"), Some(&30));
        assert_eq!(layers.get("cpu"), Some(&20));
        assert_eq!(
            layers.values().sum::<u64>(),
            100,
            "self times partition the root"
        );
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("bench.job", 100, 200, None),
            span("a.x", 90, 130, Some(0)),
            span("a.y", 120, 150, Some(0)),
            span("a.z", 190, 260, Some(0)),
        ];
        // Covered: [100,150) and [190,200) = 60 of 100.
        assert_eq!(self_ns(&spans, 0), 40);
    }

    #[test]
    fn grandchildren_only_reduce_their_parent() {
        let spans = vec![
            span("bench.job", 0, 100, None),
            span("sample.plan", 0, 80, Some(0)),
            span("cache.replay", 10, 60, Some(1)),
        ];
        assert_eq!(self_ns(&spans, 0), 20);
        assert_eq!(self_ns(&spans, 1), 30);
        assert_eq!(self_ns(&spans, 2), 50);
    }

    #[test]
    fn tracer_nests_and_off_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.enter("bench.outer");
        let v = t.span("cache.inner", 7, || 3);
        t.exit(outer, 1);
        assert_eq!(v, 3);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].work, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let mut off = Tracer::new(false);
        let o = off.enter("bench.outer");
        off.exit(o, 1);
        assert!(off.spans().is_empty());
    }
}
