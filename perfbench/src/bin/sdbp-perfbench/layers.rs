//! The layer sweep of a traced run: one pass that calls each crate's
//! public functions from the benchmark's own code, inside spans, on the
//! seed's shared `429.mcf` trace and the serve uploads. Every per-layer
//! metric comes from these spans, so a traced run of any workload reports
//! all of them.

use crate::common::{
    conservation, fresh_cache, llc, record_buffered, replay_span, sampled_span, Metrics, Ops,
    POLICIES,
};
use crate::inputs::{generate, Input};
use crate::sampled::{plan, plan_config, TRACE};
use crate::serve::{in_process, wire_bytes, wire_outcome, Daemon};
use crate::stats::median;
use crate::trace::{by_name, Tracer};
use sdbp_cache::recorder::record;
use sdbp_cache::replay::{replay, replay_with_probe};
use sdbp_cache::{Cache, WindowFingerprint};
use sdbp_cpu::CoreModel;
use sdbp_sample::{cluster, replay_sampled, KmeansConfig};
use sdbp_trace::{Instr, TraceSource};
use sdbp_traceio::{BufferedTrace, FORMAT_V1, FORMAT_V2};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Instructions recorded from a pre-decoded buffer to time the L1/L2
/// filter alone.
const RECORD_PREFIX: u64 = 2_000_000;

/// Passes over the v1 uploads when timing v1 decode, so the span covers
/// a few million records.
const V1_DECODE_PASSES: u64 = 6;

/// The sweep's inputs: the shared trace and the serve uploads.
#[derive(Debug)]
pub struct SweepInputs {
    v2: Input,
    uploads: Vec<Input>,
    seed: u64,
}

/// Writes the sweep's inputs.
pub fn inputs(dir: &Path, seed: u64) -> Result<SweepInputs, String> {
    Ok(SweepInputs {
        v2: generate(dir, TRACE.0, seed, TRACE.1, FORMAT_V2)?,
        uploads: crate::serve::inputs(dir, seed)?,
        seed,
    })
}

/// Decodes every batch of `trace`; returns the records decoded.
fn decode_all(trace: &BufferedTrace<'_>) -> Result<u64, String> {
    let mut batches = trace.batches();
    let mut n = 0u64;
    while let Some(batch) = batches.try_next().map_err(|e| e.to_string())? {
        n += black_box(batch.len()) as u64;
    }
    Ok(n)
}

/// Runs the sweep and appends every per-layer metric it yields.
pub fn sweep(inp: &SweepInputs, m: &mut Metrics, ops: &mut Ops) -> Result<(), String> {
    let mut t = Tracer::new(true);

    // traceio: load (read + index + validate) and batch decode of the v2
    // trace, then batch decode of the v1 uploads.
    let v2 = t
        .span("traceio.load", inp.v2.bytes, || {
            BufferedTrace::load(&inp.v2.path)
        })
        .map_err(|e| format!("{}: {e}", inp.v2.path.display()))?;
    t.span("traceio.decode_v2", inp.v2.instructions, || decode_all(&v2))?;
    let w = record_buffered(&mut t, &v2)?;
    drop(v2);
    let v1: Vec<(BufferedTrace<'static>, u64)> = inp
        .uploads
        .iter()
        .filter(|i| i.version == FORMAT_V1)
        .map(|i| {
            BufferedTrace::load(&i.path)
                .map(|t| (t, i.instructions))
                .map_err(|e| format!("{}: {e}", i.path.display()))
        })
        .collect::<Result<_, _>>()?;
    let v1_records = V1_DECODE_PASSES * v1.iter().map(|(_, n)| n).sum::<u64>();
    t.span("traceio.decode_v1", v1_records, || {
        (0..V1_DECODE_PASSES)
            .try_for_each(|_| v1.iter().try_for_each(|(t, _)| decode_all(t).map(drop)))
    })?;
    drop(v1);

    // cache: the L1/L2 filter on instructions decoded beforehand.
    let bench = sdbp_workloads::benchmark(TRACE.0).ok_or("unknown benchmark")?;
    let instrs: Vec<Instr> = bench
        .source(inp.seed)
        .open()?
        .take(RECORD_PREFIX as usize)
        .collect::<Result<_, _>>()?;
    let filtered = t.span("cache.record_predecoded", RECORD_PREFIX, || {
        record(TRACE.0, instrs.iter().copied(), RECORD_PREFIX)
    });
    black_box(filtered.llc.len());
    drop(instrs);

    // cache, core, predictors: exact replays; cpu: the timing model; optimal: MIN.
    let accesses = w.llc.len() as u64;
    let mut exact = Vec::new();
    let mut lru_hits = None;
    let mut sampler_stats = None;
    for policy in POLICIES {
        let mut cache = fresh_cache(policy);
        let r = t.span(replay_span(policy), accesses, || replay(&w.llc, &mut cache));
        ops.record(&format!("sweep {policy} exact"), [conservation(&r.stats)]);
        exact.push(r.stats.misses);
        match policy {
            "lru" => lru_hits = Some(r.hits),
            "sampler" => sampler_stats = Some(r.stats),
            _ => {}
        }
    }
    let lru_hits = lru_hits.ok_or("lru replay missing")?;
    let sampler_stats = sampler_stats.ok_or("sampler replay missing")?;
    let timing = t.span("cpu.timing", w.instructions(), || {
        CoreModel::default().simulate(&w.records, &lru_hits)
    });
    black_box(timing.ipc());
    let min = t.span("optimal.min", accesses, || {
        sdbp_optimal::simulate(&w.llc, llc())
    });
    ops.record(
        "sweep MIN bound",
        exact
            .iter()
            .map(|&e| (e < min.misses).then(|| format!("{e} below MIN {}", min.misses))),
    );

    // sample: the plan-build passes one by one, then the plan itself, then
    // sampled replay of every policy.
    let cfg = plan_config();
    let mut probe = WindowFingerprint::new(cfg.window as usize, llc().sets);
    t.span("sample.fingerprint", accesses, || {
        replay_with_probe(&w.llc, &mut Cache::new(llc()), &mut probe);
        probe.finish();
    });
    let points = probe.fingerprints();
    let kcfg = KmeansConfig {
        k: (cfg.k as usize).min(points.len().max(1)),
        seed: cfg.seed,
        max_iters: 64,
        jobs: cfg.jobs,
    };
    let clusters = t.span("sample.kmeans", points.len() as u64, || {
        cluster(points, &kcfg)
    });
    black_box(clusters.k());
    let plan = plan(&mut t, &w)?;
    let mut worst_held_out = 0.0f64;
    let mut replayed = 0u64;
    for (policy, &exact_misses) in POLICIES.iter().zip(&exact) {
        let open = t.enter(sampled_span(policy));
        let s = replay_sampled(&w.llc, &plan, || fresh_cache(policy)).map_err(|e| e.to_string())?;
        t.exit(open, s.replayed);
        replayed = s.replayed;
        let checked = s.with_exact(exact_misses);
        if matches!(*policy, "lru" | "srrip") {
            worst_held_out = worst_held_out.max(checked.rel_error.unwrap_or(f64::INFINITY));
            ops.record(
                &format!("sweep {policy} held-out"),
                [(checked.within_bound() != Some(true))
                    .then(|| format!("error {:?} above bound {}", checked.rel_error, plan.bound))],
            );
        }
    }

    let n = by_name(t.spans());
    let get = |name: &str| n.get(name).cloned().unwrap_or_default();
    let per_access_ns = |name: &str| {
        (get(name).secs() - get("cache.replay.lru").secs()) * 1e9 / accesses.max(1) as f64
    };
    m.put("traceio.load_s", get("traceio.load").secs(), "s");
    m.put(
        "traceio.decode_v2_maccess_per_s",
        get("traceio.decode_v2").mega_per_s(),
        "Macc/s",
    );
    m.put(
        "traceio.decode_v1_maccess_per_s",
        get("traceio.decode_v1").mega_per_s(),
        "Macc/s",
    );
    m.put(
        "cache.record_minstr_per_s",
        get("cache.record_predecoded").mega_per_s(),
        "Minstr/s",
    );
    m.put("cache.llc_apki", w.llc_apki(), "acc/kinstr");
    m.put(
        "cache.replay_lru_maccess_per_s",
        get("cache.replay.lru").mega_per_s(),
        "Macc/s",
    );
    m.put(
        "cache.replay_srrip_maccess_per_s",
        get("cache.replay.srrip").mega_per_s(),
        "Macc/s",
    );
    m.put(
        "core.sampler_extra_ns_per_access",
        per_access_ns("cache.replay.sampler"),
        "ns",
    );
    m.put(
        "predictors.tdbp_extra_ns_per_access",
        per_access_ns("cache.replay.tdbp"),
        "ns",
    );
    m.put(
        "core.sampler_coverage_pct",
        sampler_stats.coverage() * 100.0,
        "%",
    );
    m.put(
        "core.sampler_fp_pct",
        sampler_stats.false_positive_rate() * 100.0,
        "%",
    );
    m.put(
        "cpu.timing_minstr_per_s",
        get("cpu.timing").mega_per_s(),
        "Minstr/s",
    );
    m.put(
        "optimal.min_maccess_per_s",
        get("optimal.min").mega_per_s(),
        "Macc/s",
    );
    m.put(
        "sample.fingerprint_s",
        get("sample.fingerprint").secs(),
        "s",
    );
    m.put("sample.kmeans_s", get("sample.kmeans").secs(), "s");
    m.put("sample.calibrate_s", get("sample.calibrate").secs(), "s");
    let sampled: Vec<_> = POLICIES.iter().map(|p| get(sampled_span(p))).collect();
    let sampled_work: u64 = sampled.iter().map(|s| s.work).sum();
    let sampled_ns: u64 = sampled.iter().map(|s| s.total_ns).sum();
    m.put(
        "sample.replay_maccess_per_s",
        sampled_work as f64 * 1e3 / sampled_ns.max(1) as f64,
        "Macc/s",
    );
    m.put(
        "sample.work_reduction",
        accesses as f64 / replayed.max(1) as f64,
        "x",
    );
    // Policies at which plan build + calibration pays for itself: plan
    // cost over the mean per-policy saving of sampled over exact replay
    // (the timing model runs over every instruction either way). -1 when
    // sampled replay saves nothing.
    let plan_s = get("sample.build_plan").secs() + get("sample.calibrate").secs();
    let exact_s: f64 = POLICIES.iter().map(|p| get(replay_span(p)).secs()).sum();
    let saving = (exact_s - sampled_ns as f64 / 1e9) / POLICIES.len() as f64;
    m.put(
        "sample.break_even_policies",
        if saving > 0.0 { plan_s / saving } else { -1.0 },
        "count",
    );
    m.put("sample.err_pct", worst_held_out * 100.0, "%");
    m.put("sample.bound_pct", plan.bound * 100.0, "%");
    drop(w);

    serve_layer(inp, m, ops)
}

/// serve: each (upload, policy) once over the wire and once in process;
/// the difference is what the daemon adds.
fn serve_layer(inp: &SweepInputs, m: &mut Metrics, ops: &mut Ops) -> Result<(), String> {
    let mut off = Tracer::new(false);
    let mut daemon = Daemon::start(&mut off, &inp.uploads)?;
    let mut overhead = Vec::new();
    let mut bytes = Vec::new();
    for (i, input) in inp.uploads.iter().enumerate() {
        for policy in POLICIES {
            let start = Instant::now();
            let (local, _) = in_process(&mut off, daemon.upload(i)?, policy)?;
            let local_ms = start.elapsed().as_secs_f64() * 1e3;
            let start = Instant::now();
            let done = daemon.submit(&mut off, i, policy)?;
            overhead.push(start.elapsed().as_secs_f64() * 1e3 - local_ms);
            let request = daemon.request(i).ok_or("no such upload")?;
            bytes.push(wire_bytes(request, &done)? as f64);
            ops.record(
                &format!("sweep {} {policy} wire", input.label()),
                [
                    (wire_outcome(&done) != local)
                        .then(|| "wire differs from in-process".to_owned()),
                ],
            );
        }
    }
    daemon.stop()?;
    m.put("serve.overhead_ms", median(&overhead), "ms");
    m.put(
        "serve.wire_bytes_per_job",
        bytes.iter().sum::<f64>() / bytes.len().max(1) as f64,
        "bytes",
    );
    Ok(())
}
