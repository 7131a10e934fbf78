//! The benchmark suite: 29 synthetic workloads standing in for SPEC CPU
//! 2006, plus the ten quad-core mixes of Table IV.
//!
//! Each benchmark is a seeded composition of reuse-archetype kernels chosen
//! to mimic the *qualitative* memory behaviour of its SPEC namesake at the
//! LLC — streaming scans (`libquantum`, `lbm`), generational working sets
//! with PC-correlated death (`hmmer`, `gcc`), dependent pointer chasing
//! (`mcf`, `omnetpp`, `xalancbmk`), adversarially unpredictable last-touch
//! PCs (`astar`), and cache-resident codes with little LLC sensitivity
//! (`gamess`, `povray`, ...). See DESIGN.md §3 for the substitution
//! rationale. Absolute MPKI/IPC values differ from SPEC; the *relative*
//! behaviour of replacement policies on each class is what the suite
//! preserves.
//!
//! # Example
//!
//! ```
//! use sdbp_workloads::{benchmark, subset_names};
//! let hmmer = benchmark("456.hmmer").unwrap();
//! let trace = hmmer.trace();
//! assert_eq!(trace.take(100).count(), 100);
//! assert!(subset_names().contains(&"456.hmmer"));
//! ```

#![warn(clippy::cast_possible_truncation)]
#![warn(missing_debug_implementations)]

pub mod mixes;

use sdbp_trace::kernel::KernelSpec;
use sdbp_trace::rng::Rng64;
use sdbp_trace::{GeneratorSource, SyntheticTrace, TraceBuilder, TraceSource};

pub use mixes::{mix, mixes, Mix};

const KB: u64 = 1 << 10;
const MB: u64 = 1 << 20;

/// Default instruction budget per benchmark (`sdbp-repro --instructions`
/// overrides it). The paper simulates 1 B instructions per SimPoint; the
/// default here is sized so the full experiment matrix runs in minutes
/// while every workload still executes hundreds of LLC-footprint passes.
pub const DEFAULT_INSTRUCTIONS: u64 = 8_000_000;

/// One benchmark of the suite.
#[derive(Clone, Debug)]
pub struct Benchmark {
    /// SPEC-style name (e.g. `"456.hmmer"`); our workload is a synthetic
    /// stand-in for the named program's LLC behaviour class.
    pub name: &'static str,
    /// Whether the benchmark is in the paper's memory-intensive subset
    /// (misses reduced ≥ 1% by optimal replacement — Table III boldface).
    pub in_subset: bool,
    memory_fraction: f64,
    kernels: Vec<KernelSpec>,
}

impl Benchmark {
    /// Deterministic seed derived from the benchmark name.
    pub fn seed(&self) -> u64 {
        self.name.bytes().fold(0xcbf29ce484222325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
        })
    }

    /// Builds the benchmark's infinite instruction stream.
    pub fn trace(&self) -> SyntheticTrace {
        self.trace_seeded(0)
    }

    /// Builds the stream for stream id `salt` (used to decorrelate copies
    /// of the same benchmark across cores in a mix). The per-stream seed
    /// is split off the benchmark seed with [`Rng64::fork`] rather than a
    /// hand-XOR offset, so distinct `(benchmark, salt)` pairs can never
    /// collide on the same stream.
    pub fn trace_seeded(&self, salt: u64) -> SyntheticTrace {
        TraceBuilder::new(self.stream_seed(salt))
            .memory_fraction(self.memory_fraction)
            .kernels(self.kernels.iter().cloned())
            .build()
    }

    /// The builder seed for stream id `salt` (recorded into `.sdbt` trace
    /// headers so an archived trace documents its generator).
    pub fn stream_seed(&self, salt: u64) -> u64 {
        Rng64::seed_from_u64(self.seed()).fork(salt).next_u64()
    }

    /// This benchmark as a re-openable [`TraceSource`] for stream id
    /// `salt` — the synthetic half of the generator-or-file choice every
    /// recording consumer offers.
    pub fn source(&self, salt: u64) -> impl TraceSource + 'static {
        let bench = self.clone();
        GeneratorSource::new(self.name, move || bench.trace_seeded(salt))
    }
}

fn bench(
    name: &'static str,
    in_subset: bool,
    memory_fraction: f64,
    kernels: Vec<KernelSpec>,
) -> Benchmark {
    Benchmark { name, in_subset, memory_fraction, kernels }
}

/// The full 29-benchmark suite, in Table III order.
///
/// Subset templates (see DESIGN.md §3):
/// * *scan pollution*: one-shot streams plus a classed working set with
///   PC-correlated death — dead-block replacement and bypass shine;
/// * *stream + hot*: huge streams threatening a resident set — bypass and
///   insertion policies both help;
/// * *cyclic thrash*: loops slightly larger than the LLC — DIP/RRIP
///   territory, little PC signal;
/// * *chase*: dependent pointer chasing (low MLP) plus classed data;
/// * *ambiguous* (`astar`): shared-prefix lifetime classes whose last-touch
///   PC carries no reliable signal — punishes aggressive predictors.
pub fn suite() -> Vec<Benchmark> {
    vec![
        // ---- memory-intensive subset (19) --------------------------------
        bench("400.perlbench", true, 0.35, vec![
            KernelSpec::classed(8 * MB, 10_000, vec![(3.0, 1), (1.0, 4), (0.5, 8)]).variants(8).chained(0.55).weight(2.2),
            KernelSpec::classed_ambiguous(12 * MB, 6000, vec![(1.2, 2), (1.0, 20)])
                .variants(12)
                .weight(1.6),
            KernelSpec::streaming(16 * MB).weight(0.8),
        ]),
        bench("401.bzip2", true, 0.35, vec![
            KernelSpec::classed_ambiguous(14 * MB, 8000, vec![(1.2, 2), (1.0, 20)])
                .variants(12)
                .weight(1.9),
            KernelSpec::classed(8 * MB, 8000, vec![(2.0, 1), (1.0, 3)]).variants(8).chained(0.55).weight(1.4),
            KernelSpec::streaming(12 * MB).weight(0.7),
        ]),
        bench("403.gcc", true, 0.35, vec![
            KernelSpec::classed(12 * MB, 11_000, vec![(2.5, 1), (1.0, 3), (0.4, 6)]).variants(8).chained(0.55).weight(2.3),
            KernelSpec::classed_ambiguous(12 * MB, 6000, vec![(1.2, 2), (1.0, 16)])
                .variants(12)
                .weight(1.2),
            KernelSpec::streaming(16 * MB).weight(0.8),
            KernelSpec::hot_set(256 * KB).weight(1.0),
        ]),
        bench("429.mcf", true, 0.40, vec![
            KernelSpec::pointer_chase(48 * MB).weight(2.2),
            KernelSpec::classed(8 * MB, 12_000, vec![(2.0, 1), (1.0, 4)]).variants(8).chained(0.55).weight(1.8),
            KernelSpec::hot_set(384 * KB).weight(0.6),
        ]),
        bench("433.milc", true, 0.35, vec![
            KernelSpec::streaming(32 * MB).weight(2.6),
            KernelSpec::classed(4 * MB, 9000, vec![(1.0, 3), (1.0, 6)]).variants(8).chained(0.55).weight(1.4),
        ]),
        bench("434.zeusmp", true, 0.35, vec![
            // Cyclic loop a bit larger than the LLC: LRU thrashes, BIP /
            // distant insertion retain a fraction.
            KernelSpec::scan_burst(3 * MB, 2).weight(2.8),
            KernelSpec::classed(4 * MB, 6000, vec![(2.0, 1), (1.0, 4)]).variants(8).chained(0.55).weight(0.9),
        ]),
        bench("435.gromacs", true, 0.35, vec![
            KernelSpec::classed(6 * MB, 9000, vec![(2.0, 1), (1.5, 5), (0.5, 9)]).variants(8).chained(0.55).weight(2.6),
            KernelSpec::streaming(8 * MB).weight(0.9),
            KernelSpec::hot_set(512 * KB).weight(0.9),
        ]),
        bench("436.cactusADM", true, 0.35, vec![
            KernelSpec::classed(10 * MB, 10_000, vec![(2.0, 1), (1.0, 2), (0.5, 5)]).variants(8).chained(0.55).weight(1.8),
            KernelSpec::classed_ambiguous(12 * MB, 7000, vec![(1.2, 2), (1.0, 20)])
                .variants(12)
                .weight(1.5),
            KernelSpec::scan_burst(12 * MB, 2).weight(0.8),
        ]),
        bench("437.leslie3d", true, 0.35, vec![
            KernelSpec::scan_burst(4 * MB, 2).weight(2.6),
            KernelSpec::hot_set(384 * KB).weight(0.9),
        ]),
        bench("450.soplex", true, 0.38, vec![
            KernelSpec::classed_ambiguous(8 * MB, 10_000, vec![(1.2, 2), (1.0, 18)]).variants(12).weight(2.3),
            KernelSpec::classed(12 * MB, 9000, vec![(2.5, 1), (1.0, 4)]).variants(8).chained(0.55).weight(1.8),
            KernelSpec::pointer_chase_with_revisit(3 * MB, 0.3).weight(0.8),
        ]),
        bench("456.hmmer", true, 0.35, vec![
            KernelSpec::classed(8 * MB, 12_000, vec![(3.0, 1), (1.2, 4), (0.6, 8)]).variants(8).chained(0.55).weight(2.8),
            KernelSpec::classed_ambiguous(12 * MB, 6000, vec![(1.2, 2), (1.0, 16)])
                .variants(12)
                .weight(1.2),
            KernelSpec::streaming(16 * MB).weight(1.1),
        ]),
        bench("459.GemsFDTD", true, 0.35, vec![
            KernelSpec::streaming(24 * MB).weight(1.6),
            KernelSpec::scan_burst(2560 * KB, 1).weight(1.0),
            KernelSpec::classed(6 * MB, 11_000, vec![(2.0, 1), (1.0, 3)]).variants(8).chained(0.55).weight(1.3),
        ]),
        bench("462.libquantum", true, 0.33, vec![
            KernelSpec::streaming(32 * MB).weight(2.4),
            KernelSpec::hot_set(768 * KB).weight(1.6),
        ]),
        bench("470.lbm", true, 0.36, vec![
            KernelSpec::scan_burst(24 * MB, 2).weight(2.6),
            KernelSpec::hot_set(768 * KB).weight(1.0),
        ]),
        bench("471.omnetpp", true, 0.38, vec![
            KernelSpec::pointer_chase_with_revisit(12 * MB, 0.3).weight(1.8),
            KernelSpec::classed(6 * MB, 10_000, vec![(2.0, 1), (1.0, 3)]).variants(8).chained(0.55).weight(1.6),
            KernelSpec::classed_ambiguous(4 * MB, 6000, vec![(1.2, 2), (1.0, 18)]).variants(12).weight(1.6),
        ]),
        bench("473.astar", true, 0.38, vec![
            // Shared-prefix classes where most blocks die at touch 2 but a
            // significant minority live on: the dead/live signal at the
            // shared PCs is biased enough to tempt low-threshold predictors
            // into evicting the survivors, which then re-miss repeatedly.
            KernelSpec::classed_ambiguous(16 * MB, 14_000, vec![(1.2, 2), (1.0, 16)])
                .variants(12)
                .weight(4.2),
            KernelSpec::pointer_chase_with_revisit(768 * KB, 0.4).weight(0.4),
        ]),
        bench("481.wrf", true, 0.35, vec![
            KernelSpec::scan_burst(3500 * KB, 2).weight(2.6),
            KernelSpec::classed(5 * MB, 8000, vec![(2.0, 1), (1.0, 4)]).variants(8).chained(0.55).weight(1.0),
        ]),
        bench("482.sphinx3", true, 0.35, vec![
            // Mid-size cyclic loop + stream: insertion policies retain a
            // fraction of the loop; PC signal only on the stream.
            KernelSpec::scan_burst(4 * MB, 1).weight(2.4),
            KernelSpec::streaming(12 * MB).weight(1.0),
            KernelSpec::hot_set(640 * KB).weight(1.0),
        ]),
        bench("483.xalancbmk", true, 0.38, vec![
            KernelSpec::pointer_chase_with_revisit(6 * MB, 0.4).weight(1.5),
            KernelSpec::classed(4 * MB, 9000, vec![(2.0, 1), (1.0, 3), (0.5, 6)]).variants(8).chained(0.55).weight(1.8),
            KernelSpec::hot_set(256 * KB).weight(0.8),
        ]),
        // ---- cache-insensitive remainder (10) ----------------------------
        bench("410.bwaves", false, 0.35, vec![
            KernelSpec::streaming(48 * MB).weight(3.0),
            KernelSpec::hot_set(64 * KB).weight(1.0),
        ]),
        bench("416.gamess", false, 0.30, vec![
            KernelSpec::hot_set(96 * KB).weight(3.0),
        ]),
        bench("444.namd", false, 0.32, vec![
            KernelSpec::hot_set(160 * KB).weight(3.0),
            KernelSpec::streaming(MB).weight(0.2),
        ]),
        bench("445.gobmk", false, 0.32, vec![
            KernelSpec::hot_set(192 * KB).weight(2.5),
            KernelSpec::stack_distance(768 * KB, 0.7, 500.0).weight(1.0),
        ]),
        bench("447.dealII", false, 0.33, vec![
            KernelSpec::stack_distance(512 * KB, 0.8, 1000.0).weight(3.0),
        ]),
        bench("453.povray", false, 0.30, vec![
            KernelSpec::hot_set(128 * KB).weight(3.0),
        ]),
        bench("454.calculix", false, 0.33, vec![
            KernelSpec::hot_set(64 * KB).weight(3.0),
            KernelSpec::streaming(2 * MB).weight(0.4),
        ]),
        bench("458.sjeng", false, 0.32, vec![
            KernelSpec::hot_set(224 * KB).weight(3.0),
        ]),
        bench("464.h264ref", false, 0.33, vec![
            KernelSpec::scan_burst(512 * KB, 3).weight(2.0),
            KernelSpec::hot_set(128 * KB).weight(1.5),
        ]),
        bench("465.tonto", false, 0.31, vec![
            KernelSpec::hot_set(96 * KB).weight(2.5),
            KernelSpec::generational(512 * KB, 4, 500).weight(1.0),
        ]),
    ]
}

/// Looks a benchmark up by name (with or without the numeric prefix).
pub fn benchmark(name: &str) -> Option<Benchmark> {
    suite().into_iter().find(|b| {
        b.name == name || b.name.split_once('.').map(|(_, n)| n) == Some(name)
    })
}

/// Names of the 19 memory-intensive subset benchmarks, in Table III order.
pub fn subset_names() -> Vec<&'static str> {
    suite().into_iter().filter(|b| b.in_subset).map(|b| b.name).collect()
}

/// The memory-intensive subset itself.
pub fn subset() -> Vec<Benchmark> {
    suite().into_iter().filter(|b| b.in_subset).collect()
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "test-only oracles: membership and grouping checks whose iteration order never reaches an output"
)]
mod tests {
    use super::*;
    use sdbp_trace::stats::TraceStats;

    #[test]
    fn suite_has_29_benchmarks_and_19_in_subset() {
        let s = suite();
        assert_eq!(s.len(), 29);
        assert_eq!(s.iter().filter(|b| b.in_subset).count(), 19);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = suite().iter().map(|b| b.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 29);
    }

    #[test]
    fn lookup_by_full_and_short_name() {
        assert!(benchmark("456.hmmer").is_some());
        assert!(benchmark("hmmer").is_some());
        assert!(benchmark("456.hmm").is_none());
        assert!(benchmark("nonexistent").is_none());
    }

    #[test]
    fn seeds_are_distinct_and_stable() {
        let s = suite();
        let seeds: std::collections::HashSet<u64> = s.iter().map(|b| b.seed()).collect();
        assert_eq!(seeds.len(), 29);
        assert_eq!(benchmark("456.hmmer").unwrap().seed(), benchmark("hmmer").unwrap().seed());
    }

    #[test]
    fn traces_are_deterministic_and_salted() {
        let b = benchmark("403.gcc").unwrap();
        let a: Vec<_> = b.trace().take(2000).collect();
        let a2: Vec<_> = b.trace().take(2000).collect();
        let c: Vec<_> = b.trace_seeded(1).take(2000).collect();
        assert_eq!(a, a2);
        assert_ne!(a, c);
    }

    #[test]
    fn memory_fractions_land_near_spec() {
        for b in suite() {
            let stats = TraceStats::measure(b.trace().take(20_000));
            let frac = stats.memory_fraction();
            assert!(
                (0.25..=0.45).contains(&frac),
                "{}: memory fraction {frac} out of range",
                b.name
            );
        }
    }

    #[test]
    fn insensitive_benchmarks_have_small_footprints() {
        for name in ["416.gamess", "453.povray", "458.sjeng"] {
            let b = benchmark(name).unwrap();
            let stats = TraceStats::measure(b.trace().take(100_000));
            assert!(
                stats.footprint_bytes() < 512 * KB,
                "{name}: footprint {} too large",
                stats.footprint_bytes()
            );
        }
    }

    #[test]
    fn mcf_has_dependent_loads() {
        let b = benchmark("429.mcf").unwrap();
        let stats = TraceStats::measure(b.trace().take(50_000));
        assert!(stats.dependent_loads > 1000, "mcf needs pointer chasing");
    }
}
