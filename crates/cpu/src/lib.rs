//! Approximate out-of-order core timing model (the CMP$im substitute).
//!
//! The paper collects IPC with CMP$im, itself an approximate (Pin-based)
//! model of a 4-wide, 8-stage, 128-entry-window out-of-order core. This
//! module reproduces the aspects of that model that matter for LLC
//! replacement studies:
//!
//! * a 4-wide front end (instructions cannot issue faster than 4/cycle);
//! * a 128-entry instruction window: instruction *i* cannot issue until
//!   instruction *i − 128* has completed, so long-latency misses stall the
//!   core once the window fills — but independent misses inside the window
//!   overlap (memory-level parallelism);
//! * explicit serialization of *dependent* loads (pointer chasing), which
//!   is what makes mcf-like workloads latency-bound rather than
//!   bandwidth-bound;
//! * a bounded set of miss-status holding registers (MSHRs): at most
//!   `mshrs` LLC misses are outstanding at once, bounding memory-level
//!   parallelism the way real cores do.
//!
//! Inputs are the compact per-instruction records captured by
//! [`sdbp_cache::recorder`] plus the per-access LLC hit map produced by
//! replaying a policy, so the same recorded workload yields an IPC for
//! every policy under study.
//!
//! # Example
//!
//! ```
//! use sdbp_cache::recorder::{InstrKind, InstrRecord};
//! use sdbp_cpu::{CoreModel, Timing};
//! use sdbp_cache::meta::HitMap;
//! let records = vec![InstrRecord::new(InstrKind::NonMem, false); 1000];
//! let t = CoreModel::default().simulate(&records, &HitMap::new());
//! assert!((t.ipc() - 4.0).abs() < 0.1); // pure ALU code runs at width
//! ```

#![warn(clippy::cast_possible_truncation)]
#![warn(missing_debug_implementations)]

use sdbp_cache::config::Latencies;
use sdbp_cache::meta::HitMap;
use sdbp_cache::recorder::{InstrKind, InstrRecord};

/// Core parameters (defaults follow the paper's §VI-A).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct CoreModel {
    /// Issue width (instructions per cycle).
    pub width: u32,
    /// Instruction window (ROB) size.
    pub window: usize,
    /// Maximum outstanding LLC misses (MSHRs).
    pub mshrs: usize,
    /// Hierarchy latencies.
    pub latencies: Latencies,
}

impl Default for CoreModel {
    fn default() -> Self {
        CoreModel {
            width: 4,
            window: 128,
            mshrs: 16,
            latencies: Latencies::default(),
        }
    }
}

/// Result of a timing simulation.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Timing {
    /// Instructions executed.
    pub instructions: u64,
    /// Total cycles.
    pub cycles: u64,
}

impl Timing {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

impl CoreModel {
    /// Runs the timing model.
    ///
    /// `llc_hits[k]` is the hit/miss outcome of the *k*-th
    /// [`InstrKind::Llc`] record, as produced by
    /// [`sdbp_cache::replay()`]. Accesses beyond the end of `llc_hits` are
    /// treated as misses (useful for quick what-if runs).
    ///
    /// The loop has no data-dependent branch: the front-end lane and MSHR
    /// slot are wrapping counters, the window ring is walked once per
    /// `window` instructions, the latency comes from one table indexed by
    /// (kind, hit), the hit bit is read straight from the map's packed
    /// words, and the MSHR and dependent-load updates are masks and
    /// selects rather than branches.
    ///
    /// # Panics
    ///
    /// Panics if `width`, `window` or `mshrs` is zero.
    pub fn simulate(&self, records: &[InstrRecord], llc_hits: &HitMap) -> Timing {
        assert!(self.width >= 1, "width must be at least 1");
        assert!(self.window >= 1, "window must be at least 1");
        assert!(self.mshrs >= 1, "mshrs must be at least 1");
        // The paper's shape keeps both rings in stack arrays and indexes
        // its MSHRs by mask; any other shape runs the same loop body over
        // heap rings.
        let cycles = if self.window == PAPER_WINDOW && self.mshrs == PAPER_MSHRS {
            let mut retire = [0u64; PAPER_WINDOW];
            self.run(
                records,
                llc_hits,
                &mut retire,
                &mut PaperMshrs([0; 2 * PAPER_MSHRS]),
            )
        } else {
            let mut retire = vec![0u64; self.window];
            let mut mshrs = MshrRing {
                ring: vec![0; self.mshrs + 1],
                sink: self.mshrs,
            };
            self.run(records, llc_hits, &mut retire, &mut mshrs)
        };
        Timing {
            instructions: records.len() as u64,
            cycles,
        }
    }

    /// The simulation loop over a window ring (`retire`, one completion
    /// cycle per slot: the instruction `window` slots ago) and an MSHR
    /// file; returns the cycle count.
    #[inline(always)]
    fn run<M: Mshrs>(
        &self,
        records: &[InstrRecord],
        llc_hits: &HitMap,
        retire: &mut [u64],
        mshr: &mut M,
    ) -> u64 {
        let lat = self.latencies;
        // Latency by `kind_index(kind) << 1 | hit`; only LLC accesses hit.
        let latency = [1, 1, lat.l1, lat.l1, lat.l2, lat.l2, lat.memory, lat.llc].map(u64::from);
        let hit_words = llc_hits.words();
        let (mut fetch, mut lane, mut mshr_slot, mut llc_cursor) = (0u64, 0u32, 0usize, 0usize);
        // The previous instruction's completion if it was a dependent
        // load, else zero: the one value the next start waits on.
        let mut dep_done = 0u64;

        // Each chunk of `window` instructions walks the window ring once.
        for chunk in records.chunks(retire.len()) {
            for (r, retired) in chunk.iter().zip(retire.iter_mut()) {
                let kind = kind_index(r.kind());
                let is_llc = kind == kind_index(InstrKind::Llc);
                // Past the map's end every bit reads zero: a miss.
                let word = hit_words.get(llc_cursor / 64).copied().unwrap_or(0);
                let hit = is_llc & ((word >> (llc_cursor % 64)) & 1 == 1);
                llc_cursor += usize::from(is_llc);
                let is_miss = is_llc & !hit;

                // Front end, window, dependent-load serialization and a
                // free MSHR (misses only) all bound the start cycle. The
                // last max is on the loop-carried chain through
                // `dep_done`; left to itself the compiler turns it into a
                // branch, which mispredicts as dependent loads come and go.
                let bound = fetch.max(*retired).max(mshr.get(mshr_slot) & mask(is_miss));
                let start = std::hint::select_unpredictable(dep_done > bound, dep_done, bound);
                let complete = start + latency[kind << 1 | usize::from(hit)];
                *retired = complete;
                mshr.put(mshr_slot, is_miss, complete);
                let is_mem = kind != kind_index(InstrKind::NonMem);
                dep_done = complete & mask(is_mem & r.dependent());

                // At most `width` instructions begin per cycle.
                lane += 1;
                let next_cycle = lane == self.width;
                fetch += u64::from(next_cycle);
                lane = if next_cycle { 0 } else { lane };
                mshr_slot = mshr.advance(mshr_slot, is_miss);
            }
        }
        // Each instruction completes after the one `window` slots before
        // it, so the last `window` completions include the latest.
        retire.iter().copied().max().unwrap_or(0)
    }
}

/// The paper's instruction window (§VI-A).
const PAPER_WINDOW: usize = 128;

/// The paper's MSHR count, a power of two.
const PAPER_MSHRS: usize = 16;

/// An MSHR file: per slot, the completion cycle of the miss `mshrs`
/// misses ago. A non-miss writes to a sink instead, so the loop stores
/// unconditionally.
trait Mshrs {
    /// The completion cycle held in `slot`.
    fn get(&self, slot: usize) -> u64;
    /// Stores `complete` in `slot` if `is_miss`, else in the sink.
    fn put(&mut self, slot: usize, is_miss: bool, complete: u64);
    /// The slot after `slot` once this instruction has (or has not)
    /// taken it.
    fn advance(&self, slot: usize, is_miss: bool) -> usize;
}

/// [`PAPER_MSHRS`] slots and as many sink slots above them, indexed by
/// mask: every index is provably in bounds.
struct PaperMshrs([u64; 2 * PAPER_MSHRS]);

impl Mshrs for PaperMshrs {
    #[inline(always)]
    fn get(&self, slot: usize) -> u64 {
        self.0[slot % PAPER_MSHRS]
    }

    #[inline(always)]
    fn put(&mut self, slot: usize, is_miss: bool, complete: u64) {
        self.0[(slot % PAPER_MSHRS) | (usize::from(!is_miss) * PAPER_MSHRS)] = complete;
    }

    #[inline(always)]
    fn advance(&self, slot: usize, is_miss: bool) -> usize {
        (slot + usize::from(is_miss)) % PAPER_MSHRS
    }
}

/// Any number of slots in a heap ring, with the sink last.
struct MshrRing {
    ring: Vec<u64>,
    sink: usize,
}

impl Mshrs for MshrRing {
    #[inline(always)]
    fn get(&self, slot: usize) -> u64 {
        self.ring[slot]
    }

    #[inline(always)]
    fn put(&mut self, slot: usize, is_miss: bool, complete: u64) {
        self.ring[if is_miss { slot } else { self.sink }] = complete;
    }

    #[inline(always)]
    fn advance(&self, slot: usize, is_miss: bool) -> usize {
        let next = slot + usize::from(is_miss);
        if next == self.sink {
            0
        } else {
            next
        }
    }
}

/// Row of an instruction kind in the (kind, hit) latency table.
const fn kind_index(kind: InstrKind) -> usize {
    match kind {
        InstrKind::NonMem => 0,
        InstrKind::L1Hit => 1,
        InstrKind::L2Hit => 2,
        InstrKind::Llc => 3,
    }
}

/// All ones if `bit`, else zero.
const fn mask(bit: bool) -> u64 {
    0u64.wrapping_sub(bit as u64)
}

/// Weighted speedup of a multi-programmed run, the paper's multi-core
/// metric (§VI-A2): `Σ IPC_i / SingleIPC_i`, normalised by the caller
/// against the same sum under the baseline policy.
pub fn weighted_ipc(shared_ipcs: &[f64], single_ipcs: &[f64]) -> f64 {
    assert_eq!(
        shared_ipcs.len(),
        single_ipcs.len(),
        "per-core IPC lists must align"
    );
    shared_ipcs
        .iter()
        .zip(single_ipcs)
        .map(|(&s, &alone)| {
            assert!(alone > 0.0, "isolated IPC must be positive");
            s / alone
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn non_mem(n: usize) -> Vec<InstrRecord> {
        vec![InstrRecord::new(InstrKind::NonMem, false); n]
    }

    /// The timing model as a direct transcription of the rules: the front
    /// end and window by division and modulo on the instruction index,
    /// each MSHR slot by modulo on the miss count, and a branch per rule.
    fn reference(m: &CoreModel, records: &[InstrRecord], llc_hits: &HitMap) -> Timing {
        let lat = m.latencies;
        let mut retire = vec![0u64; m.window];
        let mut mshr = vec![0u64; m.mshrs];
        let mut miss_index = 0usize;
        let mut llc_cursor = 0usize;
        let mut prev_load_done = 0u64;
        let mut prev_was_dependent = false;
        let mut max_complete = 0u64;
        for (i, r) in records.iter().enumerate() {
            let fetch = (i as u64) / u64::from(m.width);
            let slot = i % m.window;
            let mut start = fetch.max(retire[slot]);
            if prev_was_dependent {
                start = start.max(prev_load_done);
            }
            let (latency, is_mem, is_miss) = match r.kind() {
                InstrKind::NonMem => (1, false, false),
                InstrKind::L1Hit => (u64::from(lat.l1), true, false),
                InstrKind::L2Hit => (u64::from(lat.l2), true, false),
                InstrKind::Llc => {
                    let hit = llc_hits.get(llc_cursor).unwrap_or(false);
                    llc_cursor += 1;
                    (
                        u64::from(if hit { lat.llc } else { lat.memory }),
                        true,
                        !hit,
                    )
                }
            };
            if is_miss {
                let slot = miss_index % m.mshrs;
                start = start.max(mshr[slot]);
                mshr[slot] = start + latency;
                miss_index += 1;
            }
            let complete = start + latency;
            retire[slot] = complete;
            if is_mem {
                prev_load_done = complete;
            }
            prev_was_dependent = is_mem && r.dependent();
            max_complete = max_complete.max(complete);
        }
        Timing {
            instructions: records.len() as u64,
            cycles: max_complete,
        }
    }

    #[test]
    fn branch_free_model_matches_reference() {
        use sdbp_trace::rng::Rng64;
        let kinds = [
            InstrKind::NonMem,
            InstrKind::L1Hit,
            InstrKind::L2Hit,
            InstrKind::Llc,
        ];
        let models = [
            CoreModel::default(),
            CoreModel {
                width: 3,
                window: 100,
                mshrs: 1,
                ..CoreModel::default()
            },
            CoreModel {
                width: 1,
                window: 1,
                mshrs: 3,
                ..CoreModel::default()
            },
            CoreModel {
                width: 5,
                window: 7,
                mshrs: 2,
                latencies: sdbp_cache::config::Latencies {
                    l1: 2,
                    l2: 9,
                    llc: 41,
                    memory: 333,
                },
            },
        ];
        let mut rng = Rng64::seed_from_u64(0x71_313e);
        for _ in 0..40 {
            let records: Vec<InstrRecord> = (0..rng.gen_range(0usize..3000))
                .map(|_| {
                    let kind = kinds[rng.gen_range(0usize..4)];
                    InstrRecord::new(kind, kind != InstrKind::NonMem && rng.gen_bool(0.4))
                })
                .collect();
            let llc = records
                .iter()
                .filter(|r| r.kind() == InstrKind::Llc)
                .count();
            // Hit maps shorter than, as long as and longer than the LLC count.
            for len in [0, llc / 2, llc.saturating_sub(1), llc, llc + 1, llc + 100] {
                let hits: HitMap = (0..len).map(|_| rng.gen_bool(0.5)).collect();
                for m in &models {
                    assert_eq!(
                        m.simulate(&records, &hits),
                        reference(m, &records, &hits),
                        "{m:?}"
                    );
                }
            }
        }
    }

    /// Recorded suite streams: 429.mcf's dependent chains exercise the
    /// dependent-load register on long runs of LLC misses, 456.hmmer its
    /// generational reuse. The hit maps are an LRU replay of each stream
    /// on the paper's 2 MB LLC, then none and every hit.
    #[test]
    fn branch_free_model_matches_reference_on_recorded_streams() {
        use sdbp_cache::{Cache, CacheConfig};
        let models = [
            CoreModel::default(),
            CoreModel {
                width: 2,
                window: 32,
                mshrs: 4,
                ..CoreModel::default()
            },
        ];
        for (name, chases) in [("429.mcf", true), ("456.hmmer", false)] {
            let bench = sdbp_workloads::benchmark(name).expect("suite benchmark");
            let w = sdbp_cache::record(name, bench.trace(), 300_000);
            let dependent_llc = w
                .records
                .iter()
                .filter(|r| r.kind() == InstrKind::Llc && r.dependent())
                .count();
            assert_eq!(
                dependent_llc > 0,
                chases,
                "{name}: {dependent_llc} dependent LLC accesses"
            );
            let lru = sdbp_cache::replay(&w.llc, &mut Cache::new(CacheConfig::llc_2mb())).hits;
            let maps = [lru, HitMap::new(), HitMap::repeat(true, w.llc.len())];
            for (hits, m) in maps.iter().flat_map(|h| models.iter().map(move |m| (h, m))) {
                assert_eq!(
                    m.simulate(&w.records, hits),
                    reference(m, &w.records, hits),
                    "{name} {m:?}"
                );
            }
        }
    }

    #[test]
    fn alu_code_runs_at_width() {
        let t = CoreModel::default().simulate(&non_mem(10_000), &HitMap::new());
        assert!((t.ipc() - 4.0).abs() < 0.05, "ipc = {}", t.ipc());
    }

    #[test]
    fn l1_hits_are_nearly_free() {
        let records = vec![InstrRecord::new(InstrKind::L1Hit, false); 10_000];
        let t = CoreModel::default().simulate(&records, &HitMap::new());
        assert!(t.ipc() > 3.5, "ipc = {}", t.ipc());
    }

    #[test]
    fn independent_misses_overlap_up_to_the_mshr_limit() {
        // All instructions are independent LLC misses: 16 MSHRs sustain
        // 16 misses per 200 cycles = 0.08 IPC, an order of magnitude above
        // the fully serialized 1/200, but far below issue width.
        let records = vec![InstrRecord::new(InstrKind::Llc, false); 20_000];
        let hits = HitMap::repeat(false, 20_000);
        let t = CoreModel::default().simulate(&records, &hits);
        assert!(t.ipc() > 0.07, "mlp not exploited: ipc = {}", t.ipc());
        assert!(t.ipc() < 0.1, "mshr limit not applied: ipc = {}", t.ipc());
    }

    #[test]
    fn dependent_misses_serialize() {
        let records = vec![InstrRecord::new(InstrKind::Llc, true); 5_000];
        let hits = HitMap::repeat(false, 5_000);
        let t = CoreModel::default().simulate(&records, &hits);
        // Each load waits for the previous: ~200 cycles per instruction.
        assert!(
            t.ipc() < 0.01,
            "dependent loads must serialize: ipc = {}",
            t.ipc()
        );
    }

    #[test]
    fn llc_hits_give_higher_ipc_than_misses() {
        let records = vec![InstrRecord::new(InstrKind::Llc, true); 5_000];
        let all_hit = HitMap::repeat(true, 5_000);
        let all_miss = HitMap::repeat(false, 5_000);
        let m = CoreModel::default();
        let hit_ipc = m.simulate(&records, &all_hit).ipc();
        let miss_ipc = m.simulate(&records, &all_miss).ipc();
        assert!(hit_ipc > 5.0 * miss_ipc, "hit {hit_ipc} vs miss {miss_ipc}");
    }

    #[test]
    fn missing_hit_map_entries_default_to_miss() {
        let records = vec![InstrRecord::new(InstrKind::Llc, false); 100];
        let m = CoreModel::default();
        let t_empty = m.simulate(&records, &HitMap::new());
        let t_miss = m.simulate(&records, &HitMap::repeat(false, 100));
        assert_eq!(t_empty, t_miss);
    }

    #[test]
    fn mixed_stream_interleaves_correctly() {
        // 1 miss followed by many ALU ops: the ALU ops issue during the
        // miss shadow, so total cycles ≈ miss latency once, not per-op.
        let mut records = vec![InstrRecord::new(InstrKind::Llc, false)];
        records.extend(non_mem(400));
        let t = CoreModel::default().simulate(&records, &HitMap::repeat(false, 1));
        assert!(
            t.cycles < 320,
            "ALU ops must hide under the miss: {} cycles",
            t.cycles
        );
    }

    #[test]
    fn weighted_ipc_sums_relative_progress() {
        let w = weighted_ipc(&[1.0, 2.0], &[2.0, 2.0]);
        assert!((w - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn weighted_ipc_rejects_mismatched_lists() {
        let _ = weighted_ipc(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn window_limits_mlp() {
        // With abundant MSHRs, shrinking the window reduces overlap and
        // IPC under misses.
        let records = vec![InstrRecord::new(InstrKind::Llc, false); 10_000];
        let hits = HitMap::repeat(false, 10_000);
        let wide = CoreModel {
            window: 128,
            mshrs: 128,
            ..CoreModel::default()
        };
        let narrow = CoreModel {
            window: 16,
            mshrs: 128,
            ..CoreModel::default()
        };
        let wide_ipc = wide.simulate(&records, &hits).ipc();
        let narrow_ipc = narrow.simulate(&records, &hits).ipc();
        assert!(
            wide_ipc > 5.0 * narrow_ipc,
            "window effect missing: wide {wide_ipc} narrow {narrow_ipc}"
        );
    }

    #[test]
    fn mshrs_limit_mlp() {
        let records = vec![InstrRecord::new(InstrKind::Llc, false); 10_000];
        let hits = HitMap::repeat(false, 10_000);
        let many = CoreModel {
            mshrs: 16,
            ..CoreModel::default()
        };
        let few = CoreModel {
            mshrs: 2,
            ..CoreModel::default()
        };
        let many_ipc = many.simulate(&records, &hits).ipc();
        let few_ipc = few.simulate(&records, &hits).ipc();
        assert!(
            many_ipc > 5.0 * few_ipc,
            "mshr effect missing: many {many_ipc} few {few_ipc}"
        );
    }
}
