//! The repository benchmark. One run measures one workload for a fixed
//! time, checks every output against independent oracles, and prints one
//! JSON line of metrics last:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload exact-matrix --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics with tracing off. `--trace 1`
//! runs the layer sweep (`layers.rs`) for the per-layer metrics, then the
//! same workload with spans on, for its layer shares and tracing overhead.

mod common;
mod exact;
mod host;
mod inputs;
mod layers;
mod sampled;
mod serve;
mod stats;
mod trace;

use common::{Metrics, Ops};
use std::path::{Path, PathBuf};
use trace::Tracer;

const USAGE: &str =
    "usage: sdbp-perfbench --workload exact-matrix|sampled-plan|serve-wire --seed N --seconds S --trace 0|1";

/// Layers whose share of a traced workload run is printed; `bench` is
/// the benchmark's own code between calls.
const SHARES: [&str; 7] = [
    "traceio", "cache", "cpu", "optimal", "sample", "serve", "bench",
];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => a.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["exact-matrix", "sampled-plan", "serve-wire"].contains(&a.workload.as_str()) {
        return Err(format!("unknown workload '{}'", a.workload));
    }
    Ok(a)
}

/// A per-run directory under the build directory, removed at exit.
fn work_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
    target
        .join("perfbench-work")
        .join(std::process::id().to_string())
}

struct Report {
    ops: Ops,
    metrics: Metrics,
}

impl Report {
    fn json(&self) -> Result<String, String> {
        let mut body = Vec::new();
        for &(name, value, unit) in &self.metrics.0 {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite"));
            }
            body.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.ops.failed == 0,
            self.ops.attempted,
            self.ops.failed,
            body.join(", ")
        ))
    }
}

fn bench(args: &Args, dir: &Path) -> Result<Report, String> {
    let sched_before = host::schedstat();
    let mut ops = Ops::default();
    let mut metrics = Metrics::default();
    let workload = args.workload.as_str();
    let inputs = match workload {
        "exact-matrix" => exact::inputs(dir, args.seed)?,
        "sampled-plan" => sampled::inputs(dir, args.seed)?,
        _ => serve::inputs(dir, args.seed)?,
    };
    if args.trace {
        let sweep_inputs = layers::inputs(dir, args.seed)?;
        layers::sweep(&sweep_inputs, &mut metrics, &mut ops)?;
    }

    // A traced run sets up once: its set-up time is not reported.
    let setups = if args.trace { 1 } else { common::SETUPS };
    let mut t = Tracer::new(args.trace);
    let run = match workload {
        "exact-matrix" => exact::run(&mut t, &inputs, args.seconds, setups, &mut ops)?,
        "sampled-plan" => sampled::run(&mut t, &inputs, args.seconds, setups, &mut ops)?,
        _ => serve::run(&mut t, &inputs, args.seconds, setups, &mut ops)?,
    };
    let sched_after = host::schedstat();
    let wait_pct = host::runqueue_wait_pct(&sched_before, &sched_after);

    // Times are reported host-normalized: scaled by the probe timed after
    // every job, as if the host had run it in its nominal time. Raw
    // values are printed above the result line.
    let factor = run.host_factor();
    let sim_minstr_per_s = run.sim_minstr_per_s() * factor;
    let job_ms = run.typical_job_ms() / factor;
    let pooled =
        |q: f64| stats::percentile(&run.pooled_ms, q).map_or("n/a".to_owned(), |v| v.to_string());
    println!("setup runs_s={:?}", run.setup_s);
    println!(
        "jobs count={} raw_job_ms={} raw_sim_minstr_per_s={} pooled_p50_ms={} pooled_p90_ms={} rounds_s={:?}",
        run.pooled_ms.len(),
        run.typical_job_ms(),
        run.sim_minstr_per_s(),
        pooled(0.5),
        pooled(0.9),
        run.round_s
    );
    println!("cells_ms {:?}", run.cell_ms);
    println!("probes_ms {:?}", run.probe_ms);
    let probe_ms = stats::median(&run.probe_ms);
    println!(
        "host probe_ms={probe_ms} factor={factor} first_ms={} last_ms={} samples={} runqueue_wait_pct={wait_pct}",
        run.probe_ms.first().copied().unwrap_or(0.0),
        run.probe_ms.last().copied().unwrap_or(0.0),
        run.probe_ms.len()
    );

    if args.trace {
        let spans = t.spans();
        let roots_ns: u64 = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let pct = |ns: f64| ns * 100.0 / roots_ns.max(1) as f64;
        let layers = trace::self_by_layer(spans);
        let shares: Vec<String> = SHARES
            .iter()
            .map(|l| format!("{l}={:.2}", pct(layers.get(l).copied().unwrap_or(0) as f64)))
            .collect();
        println!("share_pct {} spans={}", shares.join(" "), spans.len());
        metrics.put(
            "trace.overhead_pct",
            pct(spans.len() as f64 * trace::span_cost_ns()),
            "%",
        );
        metrics.put("trace.sim_minstr_per_s", sim_minstr_per_s, "Minstr/s");
        metrics.put("host.probe_ms", probe_ms, "ms");
        metrics.put("host.runqueue_wait_pct", wait_pct, "%");
        for (name, tot) in trace::by_name(spans) {
            println!(
                "span {name} count={} total_s={} self_s={} work={}",
                tot.count,
                tot.secs(),
                tot.self_ns as f64 / 1e9,
                tot.work
            );
        }
    } else {
        metrics.put("setup_s", stats::median(&run.setup_s) / factor, "s");
        metrics.put("sim_minstr_per_s", sim_minstr_per_s, "Minstr/s");
        metrics.put("job_ms", job_ms, "ms");
        metrics.put("peak_rss_mb", host::peak_rss_mb(), "MiB");
    }
    Ok(Report { ops, metrics })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let dir = work_dir();
    let result = std::fs::create_dir_all(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))
        .and_then(|()| bench(&args, &dir))
        .and_then(|r| Ok((r.json()?, r.ops.failed)));
    if let Err(e) = std::fs::remove_dir_all(&dir) {
        eprintln!("warning: could not remove {}: {e}", dir.display());
    }
    match result {
        Ok((json, failed)) => {
            println!("{json}");
            if failed > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
