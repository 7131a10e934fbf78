//! Property-style tests for the trace crate, driven by the in-repo
//! deterministic RNG: every kernel respects its declared region and
//! PC-slot bounds for randomized parameters, and trace composition is
//! deterministic and well-formed.
//!
//! Each test draws `CASES` randomized inputs from a fixed-seed [`Rng64`]
//! so failures reproduce exactly (no external proptest dependency — the
//! sandbox builds offline).

use sdbp_trace::kernel::KernelSpec;
use sdbp_trace::rng::Rng64;
use sdbp_trace::{Instr, TraceBuilder};

const CASES: u64 = 64;

/// Draws one randomized kernel spec, mirroring the old proptest
/// `arb_kernel` strategy (same variant set, same parameter ranges).
fn arb_kernel(rng: &mut Rng64) -> KernelSpec {
    match rng.gen_range(0u32..9) {
        0 => KernelSpec::scan_burst(1 << rng.gen_range(12u32..24), rng.gen_range(1u32..5)),
        1 => KernelSpec::hot_set(1 << rng.gen_range(10u32..20)),
        2 => KernelSpec::generational(
            1 << rng.gen_range(14u32..22),
            rng.gen_range(2u32..8),
            rng.gen_range(1usize..64),
        ),
        3 => KernelSpec::adversarial(
            1 << rng.gen_range(14u32..22),
            rng.gen_range(2u32..8),
            rng.gen_range(1usize..64),
        ),
        4 => KernelSpec::pointer_chase(1 << rng.gen_range(14u32..24)),
        5 => KernelSpec::pointer_chase_with_revisit(
            1 << rng.gen_range(14u32..24),
            rng.gen_range(0.0f64..0.9),
        ),
        6 => KernelSpec::classed(
            1 << rng.gen_range(16u32..24),
            64,
            vec![(1.0, rng.gen_range(1u32..6)), (0.5, rng.gen_range(1u32..6))],
        )
        .variants(rng.gen_range(1u32..16)),
        7 => KernelSpec::classed_ambiguous(
            1 << rng.gen_range(16u32..24),
            64,
            vec![(1.5, rng.gen_range(1u32..6)), (1.0, rng.gen_range(2u32..9))],
        )
        .chained(rng.gen_range(0.0f64..0.9)),
        _ => KernelSpec::stack_distance(
            1 << rng.gen_range(18u32..26),
            rng.gen_range(0.05f64..0.95),
            rng.gen_range(2.0f64..5000.0),
        ),
    }
}

#[test]
fn kernels_respect_bounds_for_arbitrary_parameters() {
    let mut gen = Rng64::seed_from_u64(0x7ace_0001);
    for _ in 0..CASES {
        let spec = arb_kernel(&mut gen);
        let seed = gen.next_u64();
        let mut rng = Rng64::seed_from_u64(seed);
        let mut kernel = spec.instantiate(&mut rng);
        let region = kernel.region_bytes();
        let slots = kernel.pc_slots();
        for _ in 0..2_000 {
            let step = kernel.step(&mut rng);
            assert!(
                step.region_offset < region,
                "{spec:?} (seed {seed}) escaped region: {} >= {region}",
                step.region_offset
            );
            assert!(
                step.pc_slot < slots,
                "{spec:?} (seed {seed}) used slot {} of {slots}",
                step.pc_slot
            );
        }
    }
}

#[test]
fn traces_are_deterministic_for_arbitrary_compositions() {
    let mut gen = Rng64::seed_from_u64(0x7ace_0002);
    for _ in 0..CASES {
        let kernels: Vec<KernelSpec> = (0..gen.gen_range(1usize..5))
            .map(|_| arb_kernel(&mut gen))
            .collect();
        let seed = gen.next_u64();
        let frac = gen.gen_range(0.05f64..1.0);
        let build = || {
            TraceBuilder::new(seed)
                .memory_fraction(frac)
                .kernels(kernels.iter().cloned())
                .build()
                .take(3_000)
                .collect::<Vec<Instr>>()
        };
        assert_eq!(build(), build(), "seed {seed} frac {frac}");
    }
}

#[test]
fn memory_fraction_is_approximately_respected() {
    let mut gen = Rng64::seed_from_u64(0x7ace_0003);
    for _ in 0..CASES {
        let seed = gen.next_u64();
        let frac = gen.gen_range(0.1f64..0.9);
        let trace = TraceBuilder::new(seed)
            .memory_fraction(frac)
            .kernel(KernelSpec::hot_set(1 << 14))
            .build();
        let n = 30_000;
        let mem = trace.take(n).filter(Instr::is_mem).count() as f64 / n as f64;
        assert!(
            (mem - frac).abs() < 0.03,
            "seed {seed}: measured {mem} vs requested {frac}"
        );
    }
}

#[test]
fn kernel_addresses_never_cross_region_boundaries() {
    let mut gen = Rng64::seed_from_u64(0x7ace_0004);
    for _ in 0..CASES {
        let kernels: Vec<KernelSpec> = (0..gen.gen_range(2usize..5))
            .map(|_| arb_kernel(&mut gen))
            .collect();
        let seed = gen.next_u64();
        // Every memory access must land in exactly one kernel's 64 MiB-
        // aligned region band (regions are spaced at >= 64 MiB).
        let trace = TraceBuilder::new(seed).kernels(kernels.clone()).build();
        let mut bands: Vec<u64> = Vec::new();
        for i in trace.take(5_000) {
            if let Some(m) = i.mem {
                let band = m.addr.raw() >> 26;
                if !bands.contains(&band) {
                    bands.push(band);
                }
            }
        }
        // No more bands than would cover the largest kernel in 64 MiB
        // chunks, summed — a loose structural bound.
        let max_chunks: u64 = kernels.iter().map(|_| 16u64).sum();
        assert!(bands.len() as u64 <= max_chunks, "seed {seed}");
    }
}
