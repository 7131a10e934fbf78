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
//! sdbp-repro --shards 8 all            # set-sharded replay of shardable policies
//! sdbp-repro --shards auto all         # one shard per engine worker
//! sdbp-repro trace record --workload 456.hmmer --out hmmer.sdbt
//! sdbp-repro trace replay hmmer.sdbt   # bit-exact archived replay
//! sdbp-repro trace import --in foreign.txt --out foreign.sdbt
//! sdbp-repro trace info hmmer.sdbt
//! sdbp-repro trace replay hmmer.sdbt --policy rrip --policy sampler:assoc=16
//! sdbp-repro list-policies             # print the policy registry
//! sdbp-repro analyze                   # workspace invariant linter
//! sdbp-repro analyze --list-rules
//! sdbp-repro serve --addr 127.0.0.1:0  # policy-evaluation daemon
//! sdbp-repro submit --addr HOST:PORT --policy sampler hmmer.sdbt
//! ```
//!
//! The per-benchmark instruction budget defaults to 8M; override with
//! `--instructions N` or the `SDBP_INSTRUCTIONS` environment variable.
//! Simulations run through the `sdbp-engine` worker pool (one worker per
//! hardware thread by default; `--jobs N` / `--serial` override). Results
//! are aggregated in submission order, so the output is byte-identical
//! for any worker count; engine telemetry is written to
//! `target/engine-report.json` (override with the `SDBP_ENGINE_REPORT`
//! environment variable) after the run.

#![expect(
    clippy::disallowed_methods,
    reason = "CLI progress: per-experiment elapsed time goes to stderr, never into results"
)]

use sdbp_engine::{Engine, Parallelism};
use sdbp_harness::experiments::{self, Context, ALL_EXPERIMENTS};
use std::io::Write as _;
use std::time::Instant;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // The trace subcommand owns its own flags (e.g. --out), so dispatch
    // before the experiment flag loop touches anything.
    if args.first().map(String::as_str) == Some("trace") {
        std::process::exit(sdbp_harness::tracecmd::run(&args[1..]));
    }
    // Same for the workspace linter: its flags (--root, --json, ...) are
    // its own.
    if args.first().map(String::as_str) == Some("analyze") {
        std::process::exit(sdbp_analyze::run_cli(&args[1..]));
    }
    // And for the policy-evaluation daemon and its client.
    if args.first().map(String::as_str) == Some("serve") {
        std::process::exit(sdbp_harness::servecmd::run_serve(&args[1..]));
    }
    if args.first().map(String::as_str) == Some("submit") {
        std::process::exit(sdbp_harness::servecmd::run_submit(&args[1..]));
    }
    if args.first().map(String::as_str) == Some("list-policies") {
        for entry in sdbp::registry::standard().entries() {
            println!("{:<16} {:<16} {}", entry.name, entry.label, entry.summary);
        }
        return;
    }
    let mut output: Option<std::fs::File> = None;
    let mut parallelism = Parallelism::Auto;
    let mut shards_auto = false;
    // Flag parsing: --instructions N, --output FILE, --jobs N, --serial,
    // --shards N|auto.
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--shards" => {
                match args.get(i + 1).map(String::as_str) {
                    Some("auto") => {
                        // Resolved below, once the worker count is known.
                        shards_auto = true;
                        args.drain(i..=i + 1);
                    }
                    Some(v) if v.parse::<usize>().is_ok_and(|n| n > 0) => {
                        // Read by every experiment's replay cells; set before any runs.
                        std::env::set_var(sdbp_harness::runner::SHARDS_ENV, v);
                        args.drain(i..=i + 1);
                    }
                    _ => {
                        eprintln!("--shards needs a positive integer or 'auto'");
                        std::process::exit(2);
                    }
                }
            }
            "--jobs" => {
                let n = args.get(i + 1).and_then(|v| v.parse::<usize>().ok());
                match n {
                    Some(n) if n > 0 => {
                        parallelism = Parallelism::Workers(n);
                        args.drain(i..=i + 1);
                    }
                    _ => {
                        eprintln!("--jobs needs a positive integer");
                        std::process::exit(2);
                    }
                }
            }
            "--serial" => {
                parallelism = Parallelism::Serial;
                args.remove(i);
            }
            "--instructions" => {
                let n = args.get(i + 1).and_then(|v| v.parse::<u64>().ok());
                match n {
                    Some(n) if n > 0 => {
                        // Read once per record; set before any recording.
                        std::env::set_var("SDBP_INSTRUCTIONS", n.to_string());
                        args.drain(i..=i + 1);
                    }
                    _ => {
                        eprintln!("--instructions needs a positive integer");
                        std::process::exit(2);
                    }
                }
            }
            "--sampled" => {
                let dir = match args.get(i + 1) {
                    Some(d) if std::path::Path::new(d).is_dir() => d.clone(),
                    Some(d) => {
                        eprintln!("--sampled needs an existing directory, got '{d}'");
                        std::process::exit(2);
                    }
                    None => {
                        eprintln!("--sampled needs a directory of .sdbs plans");
                        std::process::exit(2);
                    }
                };
                // Read per workload by run_policy; set before any replay.
                std::env::set_var(sdbp_harness::runner::SAMPLE_DIR_ENV, dir);
                args.drain(i..=i + 1);
            }
            "--output" => {
                let path = match args.get(i + 1) {
                    Some(p) => p.clone(),
                    None => {
                        eprintln!("--output needs a file path");
                        std::process::exit(2);
                    }
                };
                match std::fs::File::create(&path) {
                    Ok(f) => {
                        output = Some(f);
                        args.drain(i..=i + 1);
                    }
                    Err(e) => {
                        eprintln!("cannot create {path}: {e}");
                        std::process::exit(2);
                    }
                }
            }
            _ => i += 1,
        }
    }
    if args.is_empty() || args[0] == "help" || args[0] == "--help" {
        eprintln!(
            "usage: sdbp-repro [--instructions N] [--output FILE] [--jobs N | --serial] \
             [--sampled DIR] [--shards N|auto] [list | all | <experiment>...]\n       \
             sdbp-repro trace [record | replay | sample | import | info] ...\n       \
             sdbp-repro [serve | submit] ...\n       sdbp-repro list-policies"
        );
        eprintln!("experiments: {}", ALL_EXPERIMENTS.join(", "));
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    if args[0] == "list" {
        for id in ALL_EXPERIMENTS {
            println!("{id}");
        }
        return;
    }

    let ids: Vec<&str> = if args.iter().any(|a| a == "all") {
        ALL_EXPERIMENTS.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };

    let engine = Engine::new(parallelism);
    if shards_auto {
        // One shard per worker: a lone big replay then spreads across
        // the whole pool via the engine's shard-subtask fan-out.
        std::env::set_var(sdbp_harness::runner::SHARDS_ENV, engine.workers().to_string());
    }
    eprintln!(
        "[engine: {} worker{}, {} shard{}]",
        engine.workers(),
        if engine.workers() == 1 { "" } else { "s" },
        sdbp_harness::runner::shards_from_env(),
        if sdbp_harness::runner::shards_from_env() == 1 { "" } else { "s" }
    );
    let ctx = Context::with_engine(engine);
    let mut failed = false;
    for id in ids {
        let start = Instant::now();
        match experiments::run(&ctx, id) {
            Ok(report) => {
                println!("==== {id} ====");
                println!("{report}");
                if let Some(f) = output.as_mut() {
                    if let Err(e) = writeln!(f, "==== {id} ====
{report}") {
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
        let report_path = sdbp_engine::report::default_report_path();
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
