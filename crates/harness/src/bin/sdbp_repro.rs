//! `sdbp-repro` — regenerate the tables and figures of "Sampling Dead
//! Block Prediction for Last-Level Caches" (MICRO-43, 2010).
//!
//! Usage:
//!
//! ```text
//! sdbp-repro list                      # show the experiment index
//! sdbp-repro fig4 fig5                 # run selected experiments
//! sdbp-repro all                       # run everything, in paper order
//! sdbp-repro --instructions 16000000 fig4
//! sdbp-repro --output results.txt all
//! sdbp-repro --jobs 8 all              # 8 engine workers
//! sdbp-repro --serial fig4             # single-threaded reference run
//! sdbp-repro --sampled plans/ fig4     # sampled replay from .sdbs plans
//! sdbp-repro --trace-dir traces/ fig4  # record from archived .sdbt traces
//! sdbp-repro trace record --workload 456.hmmer --out hmmer.sdbt
//! sdbp-repro trace replay hmmer.sdbt   # bit-exact archived replay
//! sdbp-repro trace import --in foreign.txt --out foreign.sdbt
//! sdbp-repro trace info hmmer.sdbt
//! sdbp-repro trace replay hmmer.sdbt --policy rrip --policy sampler:assoc=16
//! sdbp-repro list-policies             # print the policy registry
//! sdbp-repro serve --addr 127.0.0.1:0  # policy-evaluation daemon
//! sdbp-repro submit --addr HOST:PORT --policy sampler hmmer.sdbt
//! ```
//!
//! The flags are parsed once into a [`RunConfig`] that every experiment
//! cell reads; the per-benchmark instruction budget defaults to 8M.
//! Simulations run through the `sdbp-engine` worker pool (one worker per
//! hardware thread by default; `--jobs N` / `--serial` override). Results
//! are aggregated in submission order, so the output is byte-identical
//! for any worker count; engine telemetry is written to
//! `target/engine-report.json` (override with `--engine-report FILE`)
//! after the run.

#![expect(
    clippy::disallowed_methods,
    reason = "CLI progress: per-experiment elapsed time goes to stderr, never into results"
)]

use sdbp_engine::{Engine, Parallelism};
use sdbp_harness::experiments::{self, Context, ALL_EXPERIMENTS};
use sdbp_harness::flags::Flags;
use sdbp_harness::RunConfig;
use std::io::Write as _;
use std::time::Instant;

const USAGE: &str = "usage: sdbp-repro [--instructions N] [--output FILE] [--jobs N | --serial] \
     [--sampled DIR] [--trace-dir DIR] [--engine-report FILE] \
     [list | all | <experiment>...]
       sdbp-repro trace [record | replay | sample | import | convert | info] ...
       sdbp-repro [serve | submit] ...
       sdbp-repro list-policies";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The subcommands own their flags (e.g. trace's --out), so dispatch
    // before the experiment flags are parsed.
    match args.first().map(String::as_str) {
        Some("trace") => std::process::exit(sdbp_harness::tracecmd::run(&args[1..])),
        Some("serve") => std::process::exit(sdbp_harness::servecmd::run_serve(&args[1..])),
        Some("submit") => std::process::exit(sdbp_harness::servecmd::run_submit(&args[1..])),
        Some("list-policies") => {
            for entry in sdbp::registry::standard().entries() {
                println!("{:<16} {:<16} {}", entry.name, entry.label, entry.summary);
            }
            return;
        }
        _ => {}
    }
    let flags = Flags::parse(
        &args,
        &[
            "instructions",
            "output",
            "jobs",
            "sampled",
            "trace-dir",
            "engine-report",
        ],
        &["serial", "help"],
        USAGE,
    )
    .unwrap_or_else(|e| usage_error(&e));
    let ids = flags.positional.as_slice();
    let help = flags.has("help") || ids.first().is_some_and(|id| id == "help");
    if ids.is_empty() || help {
        eprintln!("{USAGE}\nexperiments: {}", ALL_EXPERIMENTS.join(", "));
        std::process::exit(if help { 0 } else { 2 });
    }
    if ids[0] == "list" {
        for id in ALL_EXPERIMENTS {
            println!("{id}");
        }
        return;
    }
    let ids: Vec<&str> = if ids.iter().any(|a| a == "all") {
        ALL_EXPERIMENTS.to_vec()
    } else {
        ids.iter().map(String::as_str).collect()
    };
    let (ctx, mut output) = setup(&flags).unwrap_or_else(|e| usage_error(&e));

    eprintln!(
        "[engine: {} worker{}]",
        ctx.engine.workers(),
        if ctx.engine.workers() == 1 { "" } else { "s" }
    );
    let mut failed = false;
    for id in ids {
        let start = Instant::now();
        match experiments::run(&ctx, id) {
            Ok(report) => {
                println!("==== {id} ====");
                println!("{report}");
                if let Some(f) = output.as_mut() {
                    if let Err(e) = writeln!(f, "==== {id} ====\n{report}") {
                        eprintln!("error: cannot append {id} to results file: {e}");
                        failed = true;
                    }
                }
                eprintln!("[{id}: {:.1}s]", start.elapsed().as_secs_f64());
            }
            Err(e) => {
                eprintln!("error: {e}");
                failed = true;
            }
        }
    }

    let telemetry = ctx.engine.telemetry();
    if telemetry.jobs() > 0 {
        let report_path = flags.engine_report();
        match ctx.engine.write_report(&report_path) {
            Ok(()) => eprintln!(
                "[engine: {} jobs, {:.1}s busy / {:.1}s wall ({:.2}x), report: {}]",
                telemetry.jobs(),
                telemetry.busy().as_secs_f64(),
                telemetry.elapsed().as_secs_f64(),
                telemetry.speedup(),
                report_path.display()
            ),
            Err(e) => eprintln!("warning: cannot write {}: {e}", report_path.display()),
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Flag errors exit 2.
fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2)
}

/// The engine, the run config and the `--output` file the flags ask for.
fn setup(flags: &Flags) -> Result<(Context, Option<std::fs::File>), String> {
    let parallelism = match flags.positive("jobs")? {
        _ if flags.has("serial") => Parallelism::Serial,
        Some(n) => Parallelism::Workers(n),
        None => Parallelism::Auto,
    };
    let engine = Engine::new(parallelism);
    let config = RunConfig {
        instructions: flags.instructions()?,
        plan_dir: flags.dir("sampled")?,
        trace_dir: flags.dir("trace-dir")?,
    };
    let output = flags
        .get("output")
        .map(|path| std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}")))
        .transpose()?;
    Ok((Context::new(engine, config), output))
}
