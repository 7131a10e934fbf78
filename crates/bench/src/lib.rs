//! Shared fixtures and the offline micro-bench harness.
//!
//! Every paper artifact has a corresponding bench in `benches/
//! paper_artifacts.rs` that exercises the code path regenerating it, at a
//! reduced instruction budget so `cargo bench` completes quickly; the
//! full-scale numbers come from the `sdbp-repro` binary. `benches/
//! components.rs` micro-benchmarks the core data structures and
//! `benches/ablations.rs` times the design-choice variants of DESIGN.md §5.
//!
//! The benches compile only with `--features criterion` and run on the
//! in-repo harness in [`micro`] (a Criterion-shaped API over `std` timing
//! — the sandbox builds offline, so criterion itself is not a dependency):
//!
//! ```sh
//! cargo bench -p sdbp-bench --features criterion
//! ```


pub mod micro;

pub use micro::{Bencher, Criterion, Throughput};

use sdbp_cache::recorder::{record_for_core, RecordedWorkload};
use sdbp_workloads::benchmark;

/// Instruction budget used by benches (small, for quick iterations).
pub const BENCH_INSTRUCTIONS: u64 = 300_000;

/// Records a reduced-scale workload for benching.
///
/// # Panics
///
/// Panics if `name` is not in the suite.
pub fn bench_workload(name: &str) -> RecordedWorkload {
    let b = benchmark(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    record_for_core(b.name, b.trace(), BENCH_INSTRUCTIONS, 0)
}

/// Records reduced-scale workloads for the four members of a mix.
///
/// # Panics
///
/// Panics if `name` is not a known mix.
pub fn bench_mix(name: &str) -> Vec<RecordedWorkload> {
    let mix = sdbp_workloads::mix(name).unwrap_or_else(|| panic!("unknown mix {name}"));
    mix.benchmarks()
        .iter()
        .enumerate()
        .map(|(core, b)| record_for_core(b.name, b.trace_seeded(core as u64), BENCH_INSTRUCTIONS, core as u8))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let w = bench_workload("456.hmmer");
        assert_eq!(w.instructions(), BENCH_INSTRUCTIONS);
        let mix = bench_mix("mix1");
        assert_eq!(mix.len(), 4);
    }
}
