//! Pinned plan bytes and fingerprint bits: two fixed inputs must keep
//! producing the plans and per-window feature vectors recorded here, bit
//! for bit. Any change to the fingerprint pass, the clustering or the
//! plan encoding that moves a single bit fails this test; update the
//! constants only for an intended behaviour change.
//!
//! Each input is pinned by two FNV-1a 64 digests: one of
//! `SamplingPlan::to_bytes()`, one of the little-endian `f64` bits of
//! every fingerprint in stream order (built exactly as `build_plan`
//! builds them).

use sdbp_cache::recorder::{record, RecordedWorkload};
use sdbp_cache::{replay_with_probe, Cache, CacheConfig, WindowFingerprint};
use sdbp_sample::{build_plan, PlanConfig};
use sdbp_trace::kernel::KernelSpec;
use sdbp_trace::TraceBuilder;
use sdbp_traceio::format::fnv1a;

/// `(plan bytes, fingerprint bits)` digests of `w` under `cfg`.
fn digests(w: &RecordedWorkload, llc: CacheConfig, cfg: &PlanConfig) -> (u64, u64) {
    let plan = build_plan(w, llc, cfg);
    let mut probe = WindowFingerprint::new(cfg.window as usize, llc.sets);
    replay_with_probe(&w.llc, &mut Cache::new(llc), &mut probe);
    probe.finish();
    assert_eq!(probe.fingerprints().len(), plan.num_windows());
    let bits: Vec<u8> = probe
        .fingerprints()
        .iter()
        .flatten()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    (fnv1a(&plan.to_bytes()), fnv1a(&bits))
}

/// The CI `trace sample` step's input and settings: 2M instructions of
/// `429.mcf` (core 0), window 16384, 8 clusters, the paper's 2 MB LLC.
#[test]
fn mcf_plan_and_fingerprints_are_pinned() {
    let bench = sdbp_workloads::benchmark("429.mcf").expect("429.mcf is in the suite");
    let w = record(bench.name, bench.trace_seeded(0), 2_000_000);
    let cfg = PlanConfig::default().with_window(16_384).with_k(8);
    let got = digests(&w, CacheConfig::llc_2mb(), &cfg);
    assert_eq!(
        got,
        (0x695e_f206_2d01_31e2, 0xc8ee_be48_8d91_e376),
        "got ({:#018x}, {:#018x})",
        got.0,
        got.1
    );
}

/// A small synthetic stream whose last window is partial, on a small LLC.
#[test]
fn partial_tail_plan_and_fingerprints_are_pinned() {
    let t = TraceBuilder::new(0x5eed)
        .kernel(KernelSpec::generational(1 << 16, 3, 64))
        .kernel(KernelSpec::hot_set(1 << 12))
        .build();
    let w = record("partial-tail", t, 120_000);
    let cfg = PlanConfig::default().with_window(1000).with_k(4);
    assert_ne!(w.llc.len() % 1000, 0, "the last window must be partial");
    let got = digests(&w, CacheConfig::new(64, 8), &cfg);
    assert_eq!(
        got,
        (0x4868_b86d_0fa4_8441, 0x1667_7090_e211_529f),
        "got ({:#018x}, {:#018x})",
        got.0,
        got.1
    );
}
