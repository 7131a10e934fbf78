//! Summary statistics over instruction streams.

use crate::access::{Instr, BLOCK_BYTES};
#[expect(
    clippy::disallowed_types,
    reason = "distinct-block counting is insert + len only"
)]
use std::collections::HashSet;

/// Aggregate statistics for a finite prefix of an instruction stream.
///
/// ```
/// use sdbp_trace::{TraceBuilder, kernel::KernelSpec, stats::TraceStats};
/// let trace = TraceBuilder::new(1).kernel(KernelSpec::hot_set(4096)).build();
/// let stats = TraceStats::measure(trace.take(10_000));
/// assert_eq!(stats.instructions, 10_000);
/// assert!(stats.footprint_bytes() <= 4096);
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct TraceStats {
    /// Total instructions observed.
    pub instructions: u64,
    /// Memory-referencing instructions.
    pub mem_refs: u64,
    /// Loads.
    pub reads: u64,
    /// Stores.
    pub writes: u64,
    /// Loads flagged as address-generating (pointer chasing).
    pub dependent_loads: u64,
    /// Distinct cache blocks touched.
    pub unique_blocks: u64,
}

impl TraceStats {
    /// Consumes an instruction stream and accumulates statistics.
    pub fn measure<I: IntoIterator<Item = Instr>>(instrs: I) -> Self {
        let mut stats = TraceStats::default();
        #[expect(clippy::disallowed_types, reason = "insert + len only; never iterated")]
        let mut blocks: HashSet<u64> = HashSet::new();
        for i in instrs {
            stats.instructions += 1;
            if let Some(m) = i.mem {
                stats.mem_refs += 1;
                if m.kind.is_write() {
                    stats.writes += 1;
                } else {
                    stats.reads += 1;
                }
                if m.dependent {
                    stats.dependent_loads += 1;
                }
                blocks.insert(m.addr.block().raw());
            }
        }
        stats.unique_blocks = blocks.len() as u64;
        stats
    }

    /// Total data footprint in bytes (unique blocks × block size).
    pub fn footprint_bytes(&self) -> u64 {
        self.unique_blocks * BLOCK_BYTES
    }

    /// Fraction of instructions that reference memory.
    pub fn memory_fraction(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.mem_refs as f64 / self.instructions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{Addr, MemRef, Pc};

    #[test]
    fn counts_are_consistent() {
        let instrs = vec![
            Instr::non_mem(Pc::new(1)),
            Instr::mem(Pc::new(2), MemRef::read(Addr::new(0x00))),
            Instr::mem(Pc::new(3), MemRef::write(Addr::new(0x40))),
            Instr::mem(Pc::new(4), MemRef::read(Addr::new(0x41)).dependent()),
        ];
        let s = TraceStats::measure(instrs);
        assert_eq!(s.instructions, 4);
        assert_eq!(s.mem_refs, 3);
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 1);
        assert_eq!(s.dependent_loads, 1);
        // 0x40 and 0x41 share a block.
        assert_eq!(s.unique_blocks, 2);
        assert_eq!(s.footprint_bytes(), 128);
        assert!((s.memory_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_stream_is_all_zero() {
        let s = TraceStats::measure(std::iter::empty());
        assert_eq!(s, TraceStats::default());
        assert_eq!(s.memory_fraction(), 0.0);
        assert_eq!(s.footprint_bytes(), 0);
    }
}
