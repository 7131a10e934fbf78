//! Replay of recorded LLC streams against a policy-driven cache: the
//! measurement plane. Replay produces a [`ReplayResult`] (counters plus a
//! packed [`HitMap`]); callers that want per-window detail attach a
//! [`ReplayProbe`] instead of re-deriving windows from the hit map.

use crate::cache::Cache;
use crate::meta::HitMap;
use crate::recorder::LlcAccess;
use crate::reuse::{home_slot, NextUse, SetPartition};
use crate::stats::CacheStats;
use sdbp_trace::BlockAddr;

/// Outcome of replaying one LLC stream against one policy.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReplayResult {
    /// The cache's counters at the end of the run.
    pub stats: CacheStats,
    /// Hit/miss of each access, in stream order; the timing model consumes
    /// this to turn miss reductions into IPC.
    pub hits: HitMap,
}

impl ReplayResult {
    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.stats.misses
    }

    /// Misses per kilo-instruction given the run's instruction count.
    pub fn mpki(&self, instructions: u64) -> f64 {
        self.stats.mpki(instructions)
    }
}

/// Observer of per-access replay outcomes, driven in stream order.
///
/// Probes are the supported way to derive time-resolved measurements
/// (phase behaviour, per-window miss counts) from a replay without
/// keeping a second copy of the outcome stream.
///
/// Outcome-only probes ([`WindowMisses`], [`WindowStream`]) implement
/// [`on_access`](ReplayProbe::on_access); probes that also need the
/// access itself ([`WindowFingerprint`]) override
/// [`on_access_detail`](ReplayProbe::on_access_detail), whose default
/// delegates to `on_access`. [`replay_with_probe`] always drives
/// `on_access_detail`, so either entry point sees every access.
pub trait ReplayProbe {
    /// Called once per access with its stream index and outcome.
    fn on_access(&mut self, index: usize, hit: bool);

    /// Called once per access with the access itself alongside its
    /// outcome. The default forwards to
    /// [`on_access`](ReplayProbe::on_access); override it when the probe
    /// needs addresses or PCs (e.g. to fingerprint windows).
    fn on_access_detail(&mut self, index: usize, access: &LlcAccess, hit: bool) {
        let _ = access;
        self.on_access(index, hit);
    }
}

/// A [`ReplayProbe`] counting misses per fixed-size access window.
///
/// ```
/// use sdbp_cache::replay::{ReplayProbe, WindowMisses};
///
/// let mut w = WindowMisses::new(2);
/// for (i, hit) in [false, true, false, false, true].into_iter().enumerate() {
///     w.on_access(i, hit);
/// }
/// assert_eq!(w.counts(), &[1, 2, 0]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WindowMisses {
    window: usize,
    counts: Vec<u64>,
    seen: usize,
}

impl WindowMisses {
    /// A probe with `window` accesses per bucket.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "miss window must be non-empty");
        WindowMisses { window, counts: Vec::new(), seen: 0 }
    }

    /// Accesses per bucket.
    pub const fn window(&self) -> usize {
        self.window
    }

    /// Miss counts per window, in stream order (last window may be
    /// partial).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }
}

impl ReplayProbe for WindowMisses {
    fn on_access(&mut self, _index: usize, hit: bool) {
        if self.seen.is_multiple_of(self.window) {
            self.counts.push(0);
        }
        self.seen += 1;
        if !hit {
            if let Some(last) = self.counts.last_mut() {
                *last += 1;
            }
        }
    }
}

/// A [`ReplayProbe`] that emits each miss window to a callback the moment
/// it completes, instead of accumulating counts like [`WindowMisses`].
///
/// This is the streaming-measurement primitive: a long replay can report
/// progress (e.g. over a network connection) while it runs, in O(1)
/// probe memory. The callback receives `(window_index, misses)` with
/// indices starting at 0 in stream order. Call
/// [`finish`](WindowStream::finish) after the replay to flush a partial
/// final window.
///
/// ```
/// use sdbp_cache::replay::{ReplayProbe, WindowStream};
///
/// let mut seen = Vec::new();
/// let mut w = WindowStream::new(2, |index, misses| seen.push((index, misses)));
/// for (i, hit) in [false, true, false, false, true].into_iter().enumerate() {
///     w.on_access(i, hit);
/// }
/// w.finish();
/// assert_eq!(seen, vec![(0, 1), (1, 2), (2, 0)]);
/// ```
pub struct WindowStream<F: FnMut(u64, u64)> {
    window: usize,
    emit: F,
    in_window: usize,
    misses: u64,
    emitted: u64,
}

impl<F: FnMut(u64, u64)> std::fmt::Debug for WindowStream<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowStream")
            .field("window", &self.window)
            .field("in_window", &self.in_window)
            .field("misses", &self.misses)
            .field("emitted", &self.emitted)
            .finish_non_exhaustive()
    }
}

impl<F: FnMut(u64, u64)> WindowStream<F> {
    /// A streaming probe with `window` accesses per bucket, reporting each
    /// completed bucket to `emit`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize, emit: F) -> Self {
        assert!(window > 0, "miss window must be non-empty");
        WindowStream { window, emit, in_window: 0, misses: 0, emitted: 0 }
    }

    /// Accesses per bucket.
    pub const fn window(&self) -> usize {
        self.window
    }

    /// Windows emitted so far (including a flushed partial window).
    pub const fn windows(&self) -> u64 {
        self.emitted
    }

    /// Flushes a partial final window, if any accesses are buffered.
    /// Idempotent once the buffer is empty.
    pub fn finish(&mut self) {
        if self.in_window > 0 {
            self.flush();
        }
    }

    fn flush(&mut self) {
        (self.emit)(self.emitted, self.misses);
        self.emitted += 1;
        self.misses = 0;
        self.in_window = 0;
    }
}

impl<F: FnMut(u64, u64)> ReplayProbe for WindowStream<F> {
    fn on_access(&mut self, _index: usize, hit: bool) {
        if !hit {
            self.misses += 1;
        }
        self.in_window += 1;
        if self.in_window == self.window {
            self.flush();
        }
    }
}

/// Number of features in a per-window [`WindowFingerprint`] vector.
///
/// Layout: miss rate, set-touch footprint, distinct-PC fraction, write
/// fraction, first-touch fraction, then five reuse-distance histogram
/// buckets (distance in accesses since the block was last touched:
/// ≤16, ≤256, ≤4096, ≤65536, >65536), each normalized by the window's
/// access count so partial tail windows stay comparable.
pub const FINGERPRINT_FEATURES: usize = 10;

/// A per-window behavioural feature vector, all components in `[0, 1]`.
pub type Fingerprint = [f64; FINGERPRINT_FEATURES];

/// Upper edges of the reuse-distance histogram buckets (the last bucket
/// is unbounded).
const REUSE_EDGES: [u64; 4] = [16, 256, 4096, 65536];

/// Reuse-distance buckets per window.
const REUSE_BUCKETS: usize = REUSE_EDGES.len() + 1;

/// Index of the first-touch feature; the reuse buckets follow it.
const FIRST_TOUCH_FEATURE: usize = 4;

/// A [`ReplayProbe`] computing a cheap behavioural [`Fingerprint`] per
/// fixed-size access window, alongside the window's miss count.
///
/// This is the feature extractor of the sampling plane (`sdbp-sample`):
/// one fingerprint pass over a trace yields the per-window vectors its
/// k-means clustering groups into phases. The features are policy-light —
/// only the miss rate depends on the cache the probe rides on; footprint,
/// PC diversity, write mix and reuse-distance shape are properties of the
/// stream itself — so a plan fingerprinted on one policy transfers to
/// others.
///
/// The per-access features (misses, sets, PCs, writes) are counted as the
/// replay runs. The first-touch and reuse-distance features need each
/// access's previous touch of its block, across window boundaries: the
/// probe keeps every access's block and [`finish`](Self::finish) links
/// them in one set-partitioned [`reuse`](crate::reuse) pass. So a
/// fingerprint is complete, and listed by
/// [`fingerprints`](Self::fingerprints), only after `finish`.
///
/// ```
/// use sdbp_cache::replay::{replay_with_probe, WindowFingerprint};
/// use sdbp_cache::{Cache, CacheConfig};
/// use sdbp_cache::recorder::record;
/// use sdbp_trace::{kernel::KernelSpec, TraceBuilder};
///
/// let t = TraceBuilder::new(9).kernel(KernelSpec::hot_set(1 << 14)).build();
/// let w = record("demo", t, 20_000);
/// let config = CacheConfig::new(64, 8);
/// let mut probe = WindowFingerprint::new(1000, config.sets);
/// replay_with_probe(&w.llc, &mut Cache::new(config), &mut probe);
/// assert!(probe.fingerprints().is_empty(), "reuse features wait for finish()");
/// probe.finish();
/// assert_eq!(probe.fingerprints().len(), w.llc.len().div_ceil(1000));
/// ```
#[derive(Debug)]
pub struct WindowFingerprint {
    window: usize,
    sets: usize,
    /// Current window ordinal; doubles as the generation stamp for the
    /// per-set and per-PC touch tracking.
    current: u64,
    in_window: usize,
    misses: u64,
    writes: u64,
    /// Last window that touched each set (`u64::MAX` = never).
    set_stamp: Vec<u64>,
    distinct_sets: usize,
    /// Last window that touched each PC.
    pc_stamp: PcStamps,
    distinct_pcs: usize,
    /// The block of every access so far, in stream order, until
    /// [`finish`](Self::finish) links them.
    blocks: Vec<u64>,
    /// One vector per flushed window; the first-touch and reuse features
    /// stay zero until `finish`.
    fingerprints: Vec<Fingerprint>,
    finished: bool,
    miss_counts: Vec<u64>,
    window_lens: Vec<u32>,
}

impl WindowFingerprint {
    /// A fingerprint probe with `window` accesses per bucket, mapping
    /// blocks onto `sets` cache sets for the footprint feature.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or `sets` is not a power of two.
    pub fn new(window: usize, sets: usize) -> Self {
        assert!(window > 0, "fingerprint window must be non-empty");
        assert!(sets.is_power_of_two(), "sets must be a power of two, got {sets}");
        WindowFingerprint {
            window,
            sets,
            current: 0,
            in_window: 0,
            misses: 0,
            writes: 0,
            set_stamp: vec![u64::MAX; sets],
            distinct_sets: 0,
            pc_stamp: PcStamps::default(),
            distinct_pcs: 0,
            blocks: Vec::new(),
            fingerprints: Vec::new(),
            finished: false,
            miss_counts: Vec::new(),
            window_lens: Vec::new(),
        }
    }

    /// Accesses per window.
    pub const fn window(&self) -> usize {
        self.window
    }

    /// Completed fingerprints, in stream order: every window's once
    /// [`finish`](Self::finish) has run, none before.
    pub fn fingerprints(&self) -> &[Fingerprint] {
        if self.finished {
            &self.fingerprints
        } else {
            &[]
        }
    }

    /// Miss count of each completed window, in stream order.
    pub fn miss_counts(&self) -> &[u64] {
        &self.miss_counts
    }

    /// Access count of each completed window (all equal to
    /// [`window`](Self::window) except a partial tail).
    pub fn window_lens(&self) -> &[u32] {
        &self.window_lens
    }

    /// Ends the stream: flushes a partial final window, then fills in
    /// every window's first-touch and reuse-distance features from one
    /// set-partitioned reuse pass over the kept blocks, and frees them.
    /// Idempotent; the probe takes no further accesses.
    ///
    /// # Panics
    ///
    /// Panics if the probe saw `u32::MAX` or more accesses.
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        if self.in_window > 0 {
            self.flush();
        }
        self.finished = true;
        let blocks = std::mem::take(&mut self.blocks);
        let total = blocks.len();
        let partition =
            SetPartition::with_origins(blocks.iter().map(|&b| BlockAddr::new(b)), self.sets);
        drop(blocks);
        // Each link joins an access to the next touch of its block, so it
        // gives the later access its reuse distance; an access no link
        // reaches is a first touch.
        let mut reuse = vec![[0u64; REUSE_BUCKETS]; self.fingerprints.len()];
        let mut links = NextUse::default();
        for (tags, origins) in partition.sets() {
            for (&earlier, &n) in origins.iter().zip(links.link(tags)) {
                // `NEVER` lies past every set's end: no later touch.
                let Some(&later) = origins.get(n as usize) else { continue };
                let distance = u64::from(later - earlier);
                let bucket = REUSE_EDGES
                    .iter()
                    .position(|&edge| distance <= edge)
                    .unwrap_or(REUSE_EDGES.len());
                if let Some(count) =
                    reuse.get_mut(later as usize / self.window).and_then(|r| r.get_mut(bucket))
                {
                    *count += 1;
                }
            }
        }
        for (w, (features, counts)) in self.fingerprints.iter_mut().zip(&reuse).enumerate() {
            let len = self.window.min(total - w * self.window);
            let first_touches = len as u64 - counts.iter().sum::<u64>();
            let fracs = std::iter::once(first_touches).chain(counts.iter().copied());
            for (slot, n) in features.iter_mut().skip(FIRST_TOUCH_FEATURE).zip(fracs) {
                *slot = n as f64 / len as f64;
            }
        }
    }

    fn flush(&mut self) {
        let len = self.in_window as f64;
        let frac = |n: u64| n as f64 / len;
        let mut features = [0.0; FINGERPRINT_FEATURES];
        let mut parts = features.iter_mut();
        let mut put = |v: f64| {
            if let Some(slot) = parts.next() {
                *slot = v;
            }
        };
        put(frac(self.misses));
        put(self.distinct_sets as f64 / self.sets as f64);
        put(self.distinct_pcs as f64 / len);
        put(frac(self.writes));
        self.fingerprints.push(features);
        self.miss_counts.push(self.misses);
        // Windows are bounded by the (usize) stream position, so the
        // length always fits a u32 window... unless someone asks for a
        // >4G-access window; saturate rather than wrap in that case.
        self.window_lens.push(u32::try_from(self.in_window).unwrap_or(u32::MAX));
        self.current += 1;
        self.in_window = 0;
        self.misses = 0;
        self.writes = 0;
        self.distinct_sets = 0;
        self.distinct_pcs = 0;
    }
}

impl ReplayProbe for WindowFingerprint {
    /// Outcome-only driving carries no block or PC, so there is nothing
    /// to fingerprint.
    ///
    /// # Panics
    ///
    /// Always: drive this probe through [`replay_with_probe`], which
    /// calls [`on_access_detail`](ReplayProbe::on_access_detail).
    #[expect(clippy::panic, reason = "a probe fed no accesses would fingerprint nothing")]
    fn on_access(&mut self, _index: usize, _hit: bool) {
        panic!("WindowFingerprint needs each access: drive it through replay_with_probe");
    }

    /// Counts the access into the current window. Reuse distances are
    /// counted in accesses seen by the probe, which equal the `index`
    /// differences of every caller in the workspace (each numbers a stream
    /// from 0).
    ///
    /// # Panics
    ///
    /// Panics if called after [`finish`](WindowFingerprint::finish).
    fn on_access_detail(&mut self, _index: usize, access: &LlcAccess, hit: bool) {
        assert!(!self.finished, "WindowFingerprint takes no access after finish()");
        if !hit {
            self.misses += 1;
        }
        if access.kind == sdbp_trace::AccessKind::Write {
            self.writes += 1;
        }
        let set = access.block.set_index(self.sets);
        if let Some(stamp) = self.set_stamp.get_mut(set) {
            if *stamp != self.current {
                *stamp = self.current;
                self.distinct_sets += 1;
            }
        }
        if self.pc_stamp.stamp(access.pc.raw(), self.current) {
            self.distinct_pcs += 1;
        }
        self.blocks.push(access.block.raw());
        self.in_window += 1;
        if self.in_window == self.window {
            self.flush();
        }
    }
}

/// Slot stamp of an empty [`PcStamps`] slot; window ordinals never reach it.
const EMPTY_STAMP: u64 = u64::MAX;

/// The last window that touched each PC: an open-addressing table of
/// `(pc, window)` slots (Fibonacci-hashed, linear probing, load at most
/// 1/2, doubled as it fills). Traces touch thousands of PCs, not
/// millions, so the table stays cache-resident.
#[derive(Debug)]
struct PcStamps {
    slots: Vec<(u64, u64)>,
    len: usize,
}

impl Default for PcStamps {
    fn default() -> Self {
        PcStamps { slots: vec![(0, EMPTY_STAMP); 64], len: 0 }
    }
}

#[expect(
    clippy::indexing_slicing,
    reason = "probe positions are masked to the table's power-of-two capacity"
)]
impl PcStamps {
    /// Stamps `pc` with window `current`, returning whether it carried
    /// another stamp (or none) before: its first touch in the window.
    fn stamp(&mut self, pc: u64, current: u64) -> bool {
        let mask = self.slots.len() - 1;
        let mut h = home_slot(pc, 64 - self.slots.len().trailing_zeros());
        loop {
            let slot = &mut self.slots[h];
            if slot.1 == EMPTY_STAMP {
                *slot = (pc, current);
                self.len += 1;
                if 2 * self.len > self.slots.len() {
                    self.grow();
                }
                return true;
            }
            if slot.0 == pc {
                return std::mem::replace(&mut slot.1, current) != current;
            }
            h = (h + 1) & mask;
        }
    }

    /// Doubles the table and re-inserts every slot.
    fn grow(&mut self) {
        let capacity = 2 * self.slots.len();
        let old = std::mem::replace(&mut self.slots, vec![(0, EMPTY_STAMP); capacity]);
        self.len = 0;
        for (pc, stamp) in old.into_iter().filter(|s| s.1 != EMPTY_STAMP) {
            self.stamp(pc, stamp);
        }
    }
}

/// Where a batch replay ([`Cache::run`]) sends each access's outcome.
pub enum Outcomes<'a> {
    /// Drop the outcomes (warm-up only populates the cache's state).
    Discard,
    /// Append each outcome to the map.
    Record(&'a mut HitMap),
    /// Append each outcome to the map and report it, with its index in the
    /// replayed slice and the access itself, to the probe.
    Probe(&'a mut HitMap, &'a mut dyn ReplayProbe),
}

impl std::fmt::Debug for Outcomes<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Outcomes::Discard => "Discard",
            Outcomes::Record(_) => "Record",
            Outcomes::Probe(..) => "Probe",
        })
    }
}

/// Replays `stream` against `cache`, returning statistics and the
/// per-access hit map. The cache's policy sees every access exactly as the
/// LLC would during execution.
pub fn replay(stream: &[LlcAccess], cache: &mut Cache) -> ReplayResult {
    let mut hits = HitMap::with_capacity(stream.len());
    cache.run(stream, Outcomes::Record(&mut hits));
    cache.finish();
    ReplayResult { stats: cache.stats(), hits }
}

/// [`replay`], reporting every outcome to `probe` as it happens.
pub fn replay_with_probe(
    stream: &[LlcAccess],
    cache: &mut Cache,
    probe: &mut dyn ReplayProbe,
) -> ReplayResult {
    let mut hits = HitMap::with_capacity(stream.len());
    cache.run(stream, Outcomes::Probe(&mut hits, probe));
    cache.finish();
    ReplayResult { stats: cache.stats(), hits }
}

/// A warmup/measure segment handed to [`replay_segment`] does not fit the
/// stream: the ranges are not contiguous or run past the stream's end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentError {
    /// Start of the warmup range.
    pub warmup_start: usize,
    /// Start of the measured range (must equal the warmup range's end).
    pub measure_start: usize,
    /// End of the measured range.
    pub measure_end: usize,
    /// Accesses in the stream.
    pub stream_len: usize,
}

impl std::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "segment [{}..{}..{}) does not fit a {}-access stream",
            self.warmup_start, self.measure_start, self.measure_end, self.stream_len
        )
    }
}

impl std::error::Error for SegmentError {}

/// Replays one sampled segment: the warmup range `warmup_start..
/// measure_start` unmeasured (it only populates `cache`'s state), then the
/// measured range `measure_start..measure_end`, returning the measured
/// range's hit pattern. `cache` should be fresh — the sampling plane
/// replays each representative on its own cold-started cache, exactly as
/// SimPoint-style interval simulation warms each interval independently.
///
/// # Errors
///
/// Returns [`SegmentError`] when the ranges are out of order or overrun
/// the stream.
pub fn replay_segment(
    stream: &[LlcAccess],
    warmup_start: usize,
    measure_start: usize,
    measure_end: usize,
    cache: &mut Cache,
) -> Result<HitMap, SegmentError> {
    let misfit = SegmentError {
        warmup_start,
        measure_start,
        measure_end,
        stream_len: stream.len(),
    };
    if warmup_start > measure_start || measure_start > measure_end {
        return Err(misfit);
    }
    let warmup = stream.get(warmup_start..measure_start).ok_or(misfit)?;
    let measured = stream.get(measure_start..measure_end).ok_or(misfit)?;
    cache.run(warmup, Outcomes::Discard);
    let mut hits = HitMap::with_capacity(measured.len());
    cache.run(measured, Outcomes::Record(&mut hits));
    cache.finish();
    Ok(hits)
}

/// Outcome of a sampled (representative-interval) replay: the
/// extrapolated full-stream miss count, the exact count when a validation
/// replay was also run, and the relative error between them.
///
/// Produced by the sampling plane (`sdbp-sample`); defined here so the
/// measurement plane owns the result vocabulary the rest of the stack
/// (harness, CLI, CI) consumes.
#[derive(Clone, Debug, PartialEq)]
pub struct SampledReplayResult {
    /// Extrapolated full-stream miss count (each window tiled with its
    /// cluster representative's measured hit pattern).
    pub estimated: u64,
    /// Exact full-stream miss count, when an exact replay was run for
    /// validation; `None` in production sampled runs.
    pub exact: Option<u64>,
    /// `|estimated - exact| / exact`, when `exact` is known.
    pub rel_error: Option<f64>,
    /// The plan's stated relative error bound the estimate is expected to
    /// stay within.
    pub bound: f64,
    /// Full-stream hit map synthesized by tiling representative patterns,
    /// aligned with the stream (so timing models consume it unchanged).
    pub hits: HitMap,
    /// Accesses actually replayed (warmup + measured), the cost paid.
    pub replayed: u64,
    /// Accesses of the full stream, the cost avoided.
    pub total: u64,
}

impl SampledReplayResult {
    /// Fills in the exact miss count and the resulting relative error.
    #[must_use]
    pub fn with_exact(mut self, exact: u64) -> Self {
        self.exact = Some(exact);
        self.rel_error =
            Some((self.estimated as f64 - exact as f64).abs() / (exact.max(1)) as f64);
        self
    }

    /// How many times less replay work the sampled run did (`total /
    /// replayed`).
    pub fn work_reduction(&self) -> f64 {
        self.total as f64 / self.replayed.max(1) as f64
    }

    /// Whether the measured error stayed within the stated bound
    /// (`None` until [`with_exact`](Self::with_exact) supplies the truth).
    pub fn within_bound(&self) -> Option<bool> {
        self.rel_error.map(|e| e <= self.bound)
    }
}

/// A stream and hit map of different lengths were handed to
/// [`split_hits_by_core`]: the map cannot have come from replaying that
/// stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SplitHitsError {
    /// Accesses in the stream.
    pub stream_len: usize,
    /// Outcomes in the hit map.
    pub hits_len: usize,
}

impl std::fmt::Display for SplitHitsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stream and hit map must align: {} accesses vs {} outcomes",
            self.stream_len, self.hits_len
        )
    }
}

impl std::error::Error for SplitHitsError {}

/// Splits a shared-LLC hit map back into per-core hit maps, in per-core
/// stream order (for per-core IPC computation in multi-core runs).
///
/// # Errors
///
/// Returns [`SplitHitsError`] when `hits` was not produced by replaying
/// `stream` (the lengths disagree).
pub fn split_hits_by_core(
    stream: &[LlcAccess],
    hits: &HitMap,
    cores: usize,
) -> Result<Vec<HitMap>, SplitHitsError> {
    if stream.len() != hits.len() {
        return Err(SplitHitsError { stream_len: stream.len(), hits_len: hits.len() });
    }
    let mut out = vec![HitMap::new(); cores];
    for (a, h) in stream.iter().zip(hits.iter()) {
        if let Some(core) = out.get_mut(a.core as usize) {
            core.push(h);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;
    use crate::recorder::record;
    use sdbp_trace::kernel::KernelSpec;
    use sdbp_trace::TraceBuilder;

    fn workload() -> crate::recorder::RecordedWorkload {
        let t = TraceBuilder::new(8)
            .kernel(KernelSpec::streaming(1 << 22))
            .kernel(KernelSpec::hot_set(1 << 14))
            .build();
        record("w", t, 100_000)
    }

    #[test]
    fn replay_hits_match_stats() {
        let w = workload();
        let mut cache = Cache::new(CacheConfig::new(64, 8));
        let r = replay(&w.llc, &mut cache);
        assert_eq!(r.hits.len(), w.llc.len());
        let hits = r.hits.count_ones();
        assert_eq!(hits, r.stats.hits);
        assert_eq!(r.hits.len() as u64 - hits, r.stats.misses);
        assert_eq!(r.misses(), r.stats.misses);
    }

    #[test]
    fn bigger_cache_never_does_worse_with_lru() {
        // LRU has the stack property: a larger LRU cache's hits are a
        // superset of a smaller one's (per set size — here we compare same
        // set count, more ways, which preserves inclusion per set).
        let w = workload();
        let small = replay(&w.llc, &mut Cache::new(CacheConfig::new(64, 4)));
        let large = replay(&w.llc, &mut Cache::new(CacheConfig::new(64, 16)));
        assert!(large.stats.hits >= small.stats.hits);
        for (s, l) in small.hits.iter().zip(large.hits.iter()) {
            assert!(!s | l, "inclusion property violated");
        }
    }

    #[test]
    fn replay_is_deterministic() {
        let w = workload();
        let a = replay(&w.llc, &mut Cache::new(CacheConfig::new(64, 8)));
        let b = replay(&w.llc, &mut Cache::new(CacheConfig::new(64, 8)));
        assert_eq!(a, b);
    }

    #[test]
    fn probe_sees_exactly_the_hit_map() {
        struct Collect(Vec<(usize, bool)>);
        impl ReplayProbe for Collect {
            fn on_access(&mut self, index: usize, hit: bool) {
                self.0.push((index, hit));
            }
        }
        let w = workload();
        let mut probe = Collect(Vec::new());
        let r = replay_with_probe(&w.llc, &mut Cache::new(CacheConfig::new(64, 8)), &mut probe);
        let plain = replay(&w.llc, &mut Cache::new(CacheConfig::new(64, 8)));
        assert_eq!(r, plain, "the probe must not perturb the replay");
        assert_eq!(probe.0.len(), r.hits.len());
        assert!(probe.0.iter().enumerate().all(|(i, &(j, h))| i == j && r.hits.get(i) == Some(h)));
    }

    #[test]
    fn window_probe_counts_misses_per_window() {
        let w = workload();
        let mut windows = WindowMisses::new(1000);
        let r = replay_with_probe(&w.llc, &mut Cache::new(CacheConfig::new(64, 8)), &mut windows);
        assert_eq!(windows.counts().iter().sum::<u64>(), r.stats.misses);
        assert_eq!(windows.counts().len(), w.llc.len().div_ceil(1000));
        assert_eq!(windows.window(), 1000);
    }

    #[test]
    fn window_stream_matches_window_misses_including_partial_tail() {
        let w = workload();
        let window = 777; // deliberately not a divisor of the stream length
        let mut accumulated = WindowMisses::new(window);
        let a = replay_with_probe(
            &w.llc,
            &mut Cache::new(CacheConfig::new(64, 8)),
            &mut accumulated,
        );
        let mut streamed: Vec<(u64, u64)> = Vec::new();
        let mut probe = WindowStream::new(window, |index, misses| streamed.push((index, misses)));
        let b = replay_with_probe(&w.llc, &mut Cache::new(CacheConfig::new(64, 8)), &mut probe);
        probe.finish();
        assert_eq!(a, b, "probes must not perturb the replay");
        let emitted = probe.windows();
        assert_eq!(probe.window(), window);
        assert_eq!(emitted, streamed.len() as u64);
        let counts: Vec<u64> = streamed.iter().map(|&(_, m)| m).collect();
        assert_eq!(counts, accumulated.counts(), "streamed windows must equal accumulated ones");
        assert!(streamed.iter().enumerate().all(|(i, &(j, _))| i as u64 == j));
        assert_eq!(counts.iter().sum::<u64>(), b.stats.misses);
    }

    #[test]
    #[should_panic(expected = "drive it through replay_with_probe")]
    fn fingerprint_refuses_outcome_only_driving() {
        WindowFingerprint::new(4, 8).on_access(0, false);
    }

    #[test]
    fn window_stream_finish_is_idempotent() {
        let mut emitted = 0u64;
        let mut w = WindowStream::new(4, |_, _| emitted += 1);
        for i in 0..6 {
            w.on_access(i, false);
        }
        w.finish();
        w.finish();
        assert_eq!(w.windows(), 2);
        assert_eq!(emitted, 2);
    }

    #[test]
    fn fingerprint_probe_does_not_perturb_and_pins_features() {
        let w = workload();
        let config = CacheConfig::new(64, 8);
        let mut probe = WindowFingerprint::new(10_000, config.sets);
        let r = replay_with_probe(&w.llc, &mut Cache::new(config), &mut probe);
        probe.finish();
        let plain = replay(&w.llc, &mut Cache::new(config));
        assert_eq!(r, plain, "the probe must not perturb the replay");
        assert_eq!(probe.fingerprints().len(), w.llc.len().div_ceil(10_000));
        assert_eq!(probe.miss_counts().iter().sum::<u64>(), r.stats.misses);
        assert_eq!(
            probe.window_lens().iter().map(|&l| u64::from(l)).sum::<u64>(),
            w.llc.len() as u64
        );
        for f in probe.fingerprints() {
            for (i, v) in f.iter().enumerate() {
                assert!((0.0..=1.0).contains(v), "feature {i} = {v} out of range");
            }
            // First-touch fraction plus the reuse buckets partition the
            // window exactly.
            let reuse_sum: f64 = f.iter().skip(4).sum();
            assert!((reuse_sum - 1.0).abs() < 1e-9, "reuse features sum to {reuse_sum}");
        }
        // Pin the first window's fingerprint: the workload, seed, window
        // and feature definitions are all fixed, so these bits must never
        // drift (the sampling plane's plans depend on them).
        let again = {
            let mut p = WindowFingerprint::new(10_000, config.sets);
            replay_with_probe(&w.llc, &mut Cache::new(config), &mut p);
            p.finish();
            p.fingerprints().to_vec()
        };
        assert_eq!(again, probe.fingerprints(), "fingerprints must be bit-stable");
        let first = probe.fingerprints().first().copied().expect("at least one window");
        let miss_rate = probe.miss_counts().first().copied().unwrap_or(0) as f64 / 10_000.0;
        assert_eq!(first.first().copied(), Some(miss_rate));
    }

    #[test]
    fn fingerprints_separate_phases() {
        // A trace that alternates kernels must yield windows whose
        // fingerprints differ; identical-behaviour windows must coincide
        // closely. Build two single-kernel workloads and compare their
        // windows' fingerprints.
        let config = CacheConfig::new(64, 8);
        let fp = |spec: KernelSpec| {
            let t = TraceBuilder::new(5).kernel(spec).build();
            let w = record("k", t, 300_000);
            let mut p = WindowFingerprint::new(1024, config.sets);
            replay_with_probe(&w.llc, &mut Cache::new(config), &mut p);
            p.finish();
            p.fingerprints().to_vec()
        };
        let streaming = fp(KernelSpec::streaming(1 << 22));
        let hot = fp(KernelSpec::hot_set(1 << 19));
        let dist = |a: &Fingerprint, b: &Fingerprint| -> f64 {
            a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
        };
        let (Some(s0), Some(s1)) = (streaming.get(1), streaming.get(2)) else {
            panic!("streaming trace too short for two full windows");
        };
        let Some(h0) = hot.get(1) else { panic!("hot-set trace too short") };
        assert!(
            dist(s0, h0) > 10.0 * dist(s0, s1).max(1e-12),
            "cross-kernel distance {} must dominate within-kernel {}",
            dist(s0, h0),
            dist(s0, s1)
        );
    }

    #[test]
    fn segment_replay_matches_full_replay_prefix() {
        // Warming from the stream start makes a segment's measured pattern
        // identical to the same range of a full replay.
        let w = workload();
        let config = CacheConfig::new(64, 8);
        let full = replay(&w.llc, &mut Cache::new(config));
        let (a, b) = (w.llc.len() / 3, 2 * w.llc.len() / 3);
        let pattern = replay_segment(&w.llc, 0, a, b, &mut Cache::new(config))
            .expect("segment fits");
        assert_eq!(pattern.len(), b - a);
        for (i, bit) in pattern.iter().enumerate() {
            assert_eq!(Some(bit), full.hits.get(a + i), "divergence at offset {i}");
        }
    }

    #[test]
    fn segment_replay_rejects_misfits() {
        let w = workload();
        let config = CacheConfig::new(64, 8);
        let n = w.llc.len();
        for (ws, ms, me) in [(10, 5, 20), (0, 30, 20), (0, 10, n + 1), (n + 1, n + 2, n + 3)] {
            let err = replay_segment(&w.llc, ws, ms, me, &mut Cache::new(config))
                .expect_err("misfit must be a typed error");
            assert_eq!(err.stream_len, n);
            assert!(err.to_string().contains("does not fit"));
        }
    }

    #[test]
    fn sampled_result_accounting() {
        let r = SampledReplayResult {
            estimated: 95,
            exact: None,
            rel_error: None,
            bound: 0.06,
            hits: HitMap::repeat(true, 10),
            replayed: 100,
            total: 1000,
        };
        assert_eq!(r.within_bound(), None);
        assert!((r.work_reduction() - 10.0).abs() < 1e-12);
        let v = r.with_exact(100);
        assert_eq!(v.exact, Some(100));
        let e = v.rel_error.expect("exact supplied");
        assert!((e - 0.05).abs() < 1e-12);
        assert_eq!(v.within_bound(), Some(true));
    }

    #[test]
    fn split_hits_preserves_order_and_counts() {
        use crate::recorder::{merge_streams, record_for_core};
        let t = |seed| {
            TraceBuilder::new(seed)
                .kernel(KernelSpec::streaming(1 << 20))
                .build()
        };
        let w0 = record_for_core("a", t(1), 30_000, 0);
        let w1 = record_for_core("b", t(2), 30_000, 1);
        let merged = merge_streams(&[w0.clone(), w1.clone()]);
        let r = replay(&merged, &mut Cache::new(CacheConfig::new(128, 8)));
        let per_core = split_hits_by_core(&merged, &r.hits, 2).expect("lengths align");
        assert_eq!(per_core[0].len(), w0.llc.len());
        assert_eq!(per_core[1].len(), w1.llc.len());
        // Round-trip: re-interleaving the per-core maps in stream order
        // reproduces the shared map bit for bit.
        let mut cursors = [0usize; 2];
        let rebuilt: HitMap = merged
            .iter()
            .map(|a| {
                let core = a.core as usize;
                let bit = per_core[core].get(cursors[core]).expect("cursor in range");
                cursors[core] += 1;
                bit
            })
            .collect();
        assert_eq!(rebuilt, r.hits);
    }

    #[test]
    fn split_hits_rejects_mismatched_lengths() {
        let w = workload();
        let err = split_hits_by_core(&w.llc, &HitMap::new(), 1)
            .expect_err("mismatched lengths must be a typed error");
        assert_eq!(err.stream_len, w.llc.len());
        assert_eq!(err.hits_len, 0);
        assert!(err.to_string().contains("must align"));
    }
}
