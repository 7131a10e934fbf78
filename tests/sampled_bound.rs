//! The sampled-replay accuracy gate (DESIGN.md §12): on a phase-rich
//! validation workload, every registry policy's sampled miss estimate
//! must land within the plan's calibrated error bound, the bound must
//! stay within 5%, and the paper's `sampler` policy within 5% of exact.
//!
//! The plan must actually skip windows — fewer clusters than windows,
//! work reduction above 1 — or the gate would pass by replaying the
//! whole stream. At 30M instructions the release build takes about half
//! a minute, so the test is `#[ignore]`d and CI's `sample` job runs it:
//!
//! ```text
//! cargo test --release --offline --test sampled_bound -- --ignored
//! ```

use sdbp_suite::cache::recorder::{record, RecordedWorkload};
use sdbp_suite::cache::{Cache, CacheConfig};
use sdbp_suite::sample::{build_plan, calibrate_bound, PlanConfig};
use sdbp_suite::sdbp::registry::{standard, PolicySpec};
use sdbp_suite::sdbp::replay::{ReplayMode, ReplayRequest};
use sdbp_suite::trace::kernel::KernelSpec;
use sdbp_suite::trace::TraceBuilder;

/// Instructions of the validation workload.
const INSTRUCTIONS: u64 = 30_000_000;

/// Ceiling on the plan's stated bound and on `sampler`'s error.
const CEILING: f64 = 0.05;

/// A deliberate phase mixture — streaming, a cache-friendly hot set,
/// generational churn and scan bursts — so the clustering has real
/// structure to find.
fn validation_workload() -> RecordedWorkload {
    let trace = TraceBuilder::new(0x5a3b_1e77)
        .kernel(KernelSpec::streaming(1 << 23).weight(1.5))
        .kernel(KernelSpec::hot_set(1 << 19))
        .kernel(KernelSpec::generational(1 << 21, 4, 64))
        .kernel(KernelSpec::scan_burst(1 << 22, 2))
        .build();
    record("sampled-bound", trace, INSTRUCTIONS)
}

fn replay(request: ReplayRequest<'_>) -> sdbp_suite::sdbp::replay::ReplayOutcome {
    let name = request.policy.name.clone();
    request.run().unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[test]
#[ignore = "30M-instruction validation run; CI's sample job runs it with --ignored"]
fn every_registry_policy_is_within_the_sampled_bound() {
    let workload = validation_workload();
    let llc = CacheConfig::llc_2mb();
    let registry = standard();

    // Windows of eight LLC capacities, so replacement reaches steady
    // state inside each one and a window spans a full learn/bypass cycle
    // of the dead-block predictors; one warmup window re-warms the tags
    // after every skip.
    let blocks = u32::try_from(llc.sets * llc.ways).expect("LLC block count fits u32");
    let mut cfg = PlanConfig::default().with_window(blocks * 8).with_k(8);
    cfg.warmup_windows = 1;
    let mut plan = build_plan(&workload, llc, &cfg);

    // Calibrate against the two learning references, which train
    // differently enough that either alone can understate the other's
    // transfer error.
    let mut refs: Vec<Box<dyn FnMut() -> Cache>> = ["sampler", "tdbp"]
        .into_iter()
        .map(|name| {
            let spec: PolicySpec = name.parse().expect("reference spec parses");
            let registry = &registry;
            Box::new(move || {
                Cache::with_policy(
                    llc,
                    registry.build(&spec, llc, 1).expect("reference builds"),
                )
            }) as Box<dyn FnMut() -> Cache>
        })
        .collect();
    calibrate_bound(&workload.llc, &mut plan, &mut refs, cfg.safety, cfg.floor)
        .expect("plan applies to its own workload");

    assert!(
        plan.clusters() < plan.num_windows(),
        "{} clusters over {} windows: the plan replays every window",
        plan.clusters(),
        plan.num_windows()
    );
    assert!(
        plan.bound <= CEILING,
        "stated bound {:.4} exceeds {CEILING}",
        plan.bound
    );

    let mut report = format!(
        "{} windows -> {} clusters, bound {:.4}\n",
        plan.num_windows(),
        plan.clusters(),
        plan.bound
    );
    let mut escaped = Vec::new();
    let mut sampler_error = None;
    for entry in registry.entries() {
        let spec: PolicySpec = entry.name.parse().expect("registry names are specs");
        let request = |mode| ReplayRequest {
            stream: &workload.llc,
            llc,
            policy: &spec,
            mode,
            cores: 1,
        };
        let exact = replay(request(ReplayMode::Exact { probe: None }))
            .stats
            .misses;
        let outcome = replay(request(ReplayMode::Sampled(&plan)));
        let extras = outcome
            .sampled
            .expect("a sampled replay reports its extras");
        let estimate = outcome.stats.misses;
        let error = estimate.abs_diff(exact) as f64 / exact.max(1) as f64;

        assert!(
            extras.work_reduction() > 1.0,
            "{}: sampled replay did all the work ({} of {} accesses)",
            entry.name,
            extras.replayed,
            extras.total
        );
        let within = error <= extras.bound;
        report.push_str(&format!(
            "{:<16} exact={exact:>9} sampled={estimate:>9} error={error:.4} \
             reduction={:.1}x {}\n",
            entry.name,
            extras.work_reduction(),
            if within { "ok" } else { "ESCAPED" }
        ));
        if !within {
            escaped.push(entry.name);
        }
        if entry.name == "sampler" {
            sampler_error = Some(error);
        }
    }
    println!("{report}");

    assert!(
        escaped.is_empty(),
        "estimates escaped the bound for {escaped:?}:\n{report}"
    );
    let sampler_error = sampler_error.expect("the registry has a `sampler` entry");
    assert!(
        sampler_error <= CEILING,
        "sampler error {sampler_error:.4} exceeds {CEILING}:\n{report}"
    );
}
