//! `sampled-plan`: build a sampling plan the way `trace sample` does
//! (fingerprint pass, k-means, calibration against `sampler` and `tdbp`),
//! then evaluate the four policies by sampled replay. `lru` and `srrip`
//! take no part in calibration, so their errors are held-out checks of
//! the plan's stated bound.

use crate::common::{
    conservation, fresh_cache, llc, load_and_record, print_result, sampled_span, Deadline, Ops,
    Run, POLICIES,
};
use crate::inputs::{generate, Input};
use crate::trace::Tracer;
use sdbp_cache::replay::replay;
use sdbp_cache::{Cache, RecordedWorkload};
use sdbp_cpu::CoreModel;
use sdbp_sample::{build_plan, calibrate_bound, replay_sampled, PlanConfig, SamplingPlan};
use sdbp_traceio::FORMAT_V2;
use std::path::Path;
use std::time::Instant;

/// The shared `429.mcf` trace.
pub const TRACE: (&str, u64) = ("429.mcf", 12_000_000);

/// Accesses per window and clusters, passed explicitly (DESIGN §12): the
/// window spans a full learn/bypass/unlearn period of the predictor.
pub const WINDOW: u32 = 262_144;
/// Clusters per plan.
pub const K: u32 = 8;

/// Policies the plan is calibrated against.
const CALIBRATION: [&str; 2] = ["sampler", "tdbp"];

/// Rounds per timed run, at least, so each cell's median has three samples.
const MIN_ROUNDS: usize = 3;

/// The plan configuration.
pub fn plan_config() -> PlanConfig {
    PlanConfig::default().with_window(WINDOW).with_k(K)
}

/// Writes the workload's input.
pub fn inputs(dir: &Path, seed: u64) -> Result<Vec<Input>, String> {
    Ok(vec![generate(dir, TRACE.0, seed, TRACE.1, FORMAT_V2)?])
}

/// Builds and calibrates a plan for `w`.
pub fn plan(t: &mut Tracer, w: &RecordedWorkload) -> Result<SamplingPlan, String> {
    let cfg = plan_config();
    let mut plan = t.span("sample.build_plan", w.llc.len() as u64, || {
        build_plan(w, llc(), &cfg)
    });
    let mut refs: Vec<Box<dyn FnMut() -> Cache>> = CALIBRATION
        .iter()
        .map(|&p| Box::new(move || fresh_cache(p)) as Box<dyn FnMut() -> Cache>)
        .collect();
    t.span("sample.calibrate", w.llc.len() as u64, || {
        calibrate_bound(&w.llc, &mut plan, &mut refs, cfg.safety, cfg.floor)
    })
    .map_err(|e| format!("calibrate: {e}"))?;
    Ok(plan)
}

/// Runs the workload.
pub fn run(
    t: &mut Tracer,
    inputs: &[Input],
    seconds: f64,
    setups: usize,
    ops: &mut Ops,
) -> Result<Run, String> {
    let input = inputs.first().ok_or("sampled-plan needs its trace")?;
    let label = input.label();
    let mut run = Run::default();
    let mut prepared = None;
    for _ in 0..setups {
        drop(prepared.take());
        let setup = t.enter("bench.setup");
        let start = Instant::now();
        let w = load_and_record(t, &input.path)?;
        let p = plan(t, &w)?;
        run.setup_s.push(start.elapsed().as_secs_f64());
        t.exit(setup, 0);
        prepared = Some((w, p));
    }
    let (w, plan) = prepared.ok_or("no set-up ran")?;
    println!(
        "plan {label} window={} k={} clusters={} windows={} bound_pct={} planned_accesses={}",
        plan.window,
        plan.k,
        plan.clusters(),
        plan.num_windows(),
        plan.bound * 100.0,
        plan.planned_replay_accesses()
    );

    // References, outside every timed region: exact misses of every
    // policy, each checked against conservation and the MIN bound.
    let min = sdbp_optimal::simulate(&w.llc, llc()).misses;
    let mut exact = Vec::new();
    for policy in POLICIES {
        let stats = replay(&w.llc, &mut fresh_cache(policy)).stats;
        ops.record(
            &format!("{label} {policy} exact"),
            [
                conservation(&stats),
                (stats.misses < min).then(|| format!("misses {} below MIN {min}", stats.misses)),
            ],
        );
        exact.push(stats.misses);
    }

    let mut first: Vec<u64> = Vec::new();
    let timed = t.enter("bench.loop");
    let mut deadline = Deadline::start(seconds, MIN_ROUNDS);
    while deadline.more(&mut run) {
        for (cell, (policy, &exact_misses)) in POLICIES.iter().zip(&exact).enumerate() {
            let job = t.enter("bench.job");
            let start = Instant::now();
            let sampled = t
                .span(sampled_span(policy), w.llc.len() as u64, || {
                    replay_sampled(&w.llc, &plan, || fresh_cache(policy))
                })
                .map_err(|e| format!("sampled replay {policy}: {e}"))?;
            let timing = t.span("cpu.timing", w.instructions(), || {
                CoreModel::default().simulate(&w.records, &sampled.hits)
            });
            run.job(cell, start);
            t.exit(job, w.instructions());
            run.sim_instructions += w.instructions();

            let checked = sampled.clone().with_exact(exact_misses);
            let err = checked.rel_error.unwrap_or(f64::INFINITY);
            if first.len() == cell {
                first.push(sampled.estimated);
                print_result(
                    &label,
                    &format!("{policy}:sampled"),
                    sampled.estimated,
                    &format!(
                        " exact={exact_misses} err_pct={} bound_pct={} ipc={} work_reduction={}",
                        err * 100.0,
                        plan.bound * 100.0,
                        timing.ipc(),
                        sampled.work_reduction()
                    ),
                );
            }
            let held_out = !CALIBRATION.contains(policy);
            ops.record(
                &format!("{label} {policy} sampled"),
                [
                    (sampled.total != w.llc.len() as u64 || sampled.hits.len() != w.llc.len())
                        .then(|| "hit map does not cover the stream".to_owned()),
                    (sampled.estimated > sampled.total)
                        .then(|| "estimate above accesses".to_owned()),
                    (held_out && checked.within_bound() != Some(true))
                        .then(|| format!("held-out error {err} above bound {}", plan.bound)),
                    (first.get(cell) != Some(&sampled.estimated))
                        .then(|| "estimate changed between rounds".to_owned()),
                ],
            );
        }
    }
    t.exit(timed, run.pooled_ms.len() as u64);
    Ok(run)
}
