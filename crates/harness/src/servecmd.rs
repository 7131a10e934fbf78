//! The `sdbp-repro serve` / `sdbp-repro submit` subcommands: run the
//! policy-evaluation daemon, and submit replay jobs to one over TCP.
//!
//! ```text
//! sdbp-repro serve --addr 127.0.0.1:0 --jobs 2 --queue-depth 16
//! sdbp-repro submit --addr 127.0.0.1:43117 --policy sampler hmmer.sdbt
//! ```
//!
//! `submit` prints the same `{name} {policy} misses= mpki= ipc=` lines as
//! `trace replay --policy ...` — byte-identical, which is the wire
//! determinism property CI's serve-smoke job diffs on.

use crate::flags::Flags;
use crate::table::result_line;
use sdbp::registry::PolicySpec;
use sdbp_serve::{Client, JobRequest, Server, ServerConfig, SubmitReply, TraceSubmission};
use std::io::{Read as _, Write as _};
use std::path::PathBuf;
use std::time::Duration;

const SERVE_USAGE: &str = "usage: sdbp-repro serve [--addr HOST:PORT] [--jobs N] \
     [--queue-depth N] [--engine-report FILE] [--shutdown-file FILE]";

const SUBMIT_USAGE: &str = "usage: sdbp-repro submit --addr HOST:PORT \
     [--policy SPEC]... [--sets N] [--ways N] [--window N] FILE.sdbt";

/// How often `serve --shutdown-file` polls for the stop marker, and how
/// long `submit` waits before retrying a `Busy` bounce.
const POLL_INTERVAL: Duration = Duration::from_millis(200);

/// `Busy` retries before `submit` gives up on a saturated server.
const BUSY_RETRIES: u32 = 150;

/// Runs `sdbp-repro serve <args>`; returns the process exit code.
///
/// The daemon prints `listening on ADDR` to stdout once it is ready
/// (scripts parse this to learn the ephemeral port), then blocks until
/// either the `--shutdown-file` path exists or stdin reaches EOF.
pub fn run_serve(args: &[String]) -> i32 {
    match serve_inner(args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

fn serve_inner(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        args,
        &[
            "addr",
            "jobs",
            "queue-depth",
            "engine-report",
            "shutdown-file",
        ],
        &[],
        SERVE_USAGE,
    )?;
    if !flags.positional.is_empty() {
        return Err(format!(
            "serve takes no positional arguments\n{SERVE_USAGE}"
        ));
    }
    let config = ServerConfig {
        addr: flags.get("addr").unwrap_or("127.0.0.1:0").to_owned(),
        workers: flags.positive("jobs")?.unwrap_or(2),
        queue_depth: flags.number("queue-depth")?.unwrap_or(16),
        ..ServerConfig::default()
    };
    let report_path = flags.engine_report();
    let shutdown_file = flags.get("shutdown-file").map(PathBuf::from);

    let server = Server::start(config).map_err(|e| e.to_string())?;
    println!("listening on {}", server.local_addr());
    #[expect(
        clippy::let_underscore_must_use,
        reason = "best-effort flush so wrappers see the addr promptly"
    )]
    let _ = std::io::stdout().flush();
    eprintln!(
        "[serve: stop with {}]",
        match &shutdown_file {
            Some(p) => format!("`touch {}` or EOF on stdin", p.display()),
            None => "EOF on stdin (or a signal)".to_owned(),
        }
    );

    match shutdown_file {
        Some(marker) => {
            while !marker.exists() {
                std::thread::sleep(POLL_INTERVAL);
            }
        }
        None => {
            // Park on stdin: a daemonizing wrapper redirects stdin from
            // /dev/null (immediate EOF is wrong there, so wrappers should
            // prefer --shutdown-file); interactive use stops on ^D.
            let mut sink = Vec::new();
            #[expect(
                clippy::let_underscore_must_use,
                reason = "parking until EOF — error and EOF both mean wake"
            )]
            let _ = std::io::stdin().lock().read_to_end(&mut sink);
        }
    }

    eprintln!("[serve: shutting down]");
    server.shutdown();
    let telemetry = server.engine().telemetry();
    if telemetry.jobs() > 0 {
        server
            .engine()
            .write_report(&report_path)
            .map_err(|e| format!("cannot write {}: {e}", report_path.display()))?;
        eprintln!(
            "[serve: {} jobs, report: {}]",
            telemetry.jobs(),
            report_path.display()
        );
    }
    Ok(())
}

/// Runs `sdbp-repro submit <args>`; returns the process exit code.
pub fn run_submit(args: &[String]) -> i32 {
    match submit_inner(args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

fn submit_inner(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        args,
        &["addr", "policy", "sets", "ways", "window"],
        &[],
        SUBMIT_USAGE,
    )?;
    let addr = flags
        .get("addr")
        .ok_or_else(|| format!("submit needs --addr\n{SUBMIT_USAGE}"))?;
    let [path] = flags.positional.as_slice() else {
        return Err(format!(
            "submit needs exactly one FILE.sdbt\n{SUBMIT_USAGE}"
        ));
    };
    let sets = flags.number("sets")?.unwrap_or(2048);
    let ways = flags.number("ways")?.unwrap_or(16);
    let window = flags.number("window")?.unwrap_or(0);
    let raw_specs = flags.get_all("policy");
    let raw_specs: Vec<&str> = if raw_specs.is_empty() {
        vec!["lru", "sampler"]
    } else {
        raw_specs
    };
    // Normalize client-side so the printed lines match `trace replay`'s
    // (which prints the parsed spec, not the raw flag text).
    let mut specs = Vec::with_capacity(raw_specs.len());
    for raw in raw_specs {
        let spec: PolicySpec = raw
            .parse()
            .map_err(|e: sdbp::SpecError| format!("--policy {raw}: {e}"))?;
        specs.push(spec);
    }

    let trace =
        TraceSubmission::from_file(std::path::Path::new(path)).map_err(|e| e.to_string())?;
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    eprintln!(
        "[submit: connected to {} at {addr}, queue depth {}]",
        client.server_name(),
        client.queue_depth()
    );

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    // One request whose policy changes per job, so no job copies the trace.
    let mut request = JobRequest {
        policy: String::new(),
        sets,
        ways,
        window,
        trace,
    };
    for spec in &specs {
        request.policy = spec.to_string();
        let outcome = submit_with_retry(&mut client, &request)?;
        let line = result_line(
            &outcome.workload,
            spec,
            outcome.misses,
            outcome.mpki(),
            outcome.ipc,
        );
        writeln!(out, "{line}").map_err(|e| e.to_string())?;
    }
    client.goodbye().map_err(|e| e.to_string())
}

/// Submits one request, sleeping through a bounded number of `Busy`
/// bounces from a saturated queue.
fn submit_with_retry(
    client: &mut Client,
    request: &JobRequest,
) -> Result<sdbp_serve::JobOutcome, String> {
    for _ in 0..=BUSY_RETRIES {
        let reply = client
            .submit(request, |index, misses| {
                eprintln!("[{} window {index}: {misses} misses]", request.policy);
            })
            .map_err(|e| format!("{}: {e}", request.policy))?;
        match reply {
            SubmitReply::Done(outcome) => return Ok(outcome),
            SubmitReply::Busy { queue_depth } => {
                eprintln!(
                    "[{}: queue of {queue_depth} is full, retrying]",
                    request.policy
                );
                std::thread::sleep(POLL_INTERVAL);
            }
        }
    }
    Err(format!(
        "{}: server stayed busy after {BUSY_RETRIES} retries",
        request.policy
    ))
}
