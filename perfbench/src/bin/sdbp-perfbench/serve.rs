//! `serve-wire`: an in-process daemon (one worker, one shard) on loopback,
//! driven by one closed-loop client connection. Each short trace is
//! uploaded inline as both a v1 and a v2 image; each upload is submitted
//! under the four policies in a row, so three of every four jobs repeat
//! the previous job's upload byte for byte.

use crate::common::{
    conservation, exact_eval, llc, print_result, record_buffered, Deadline, Ops, Outcome, Run,
    POLICIES,
};
use crate::inputs::{generate, Input};
use crate::trace::Tracer;
use sdbp_serve::protocol::{TraceRef, TRACE_CHUNK_BYTES};
use sdbp_serve::{
    Client, Frame, JobOutcome, JobRequest, Server, ServerConfig, SubmitReply, TraceSubmission,
};
use sdbp_traceio::{BufferedTrace, FORMAT_V1, FORMAT_V2};
use std::path::Path;
use std::time::Instant;

/// Short traces: `429.mcf` and `456.hmmer`, each in both formats.
pub const TRACES: [(&str, u64); 2] = [("429.mcf", 500_000), ("456.hmmer", 500_000)];

/// Rounds of 16 jobs per timed run, at least: 112 jobs, enough for a p90
/// with ten samples beyond it.
const MIN_ROUNDS: usize = 7;

/// Writes the workload's uploads, v1 and v2 of each trace.
pub fn inputs(dir: &Path, seed: u64) -> Result<Vec<Input>, String> {
    let mut out = Vec::new();
    for (bench, n) in TRACES {
        for version in [FORMAT_V1, FORMAT_V2] {
            out.push(generate(dir, bench, seed, n, version)?);
        }
    }
    Ok(out)
}

/// A started daemon with one connected client and one job request per
/// upload, built once so no job copies its upload.
pub struct Daemon {
    server: Server,
    client: Client,
    jobs: Vec<JobRequest>,
}

impl Daemon {
    /// Starts the daemon, connects, reads the uploads and runs one
    /// warm-up job per upload.
    pub fn start(t: &mut Tracer, inputs: &[Input]) -> Result<Daemon, String> {
        let config = ServerConfig {
            workers: 1,
            shards: 1,
            queue_depth: 2,
            ..ServerConfig::default()
        };
        let server = t
            .span("serve.start", 0, || Server::start(config))
            .map_err(|e| e.to_string())?;
        let addr = server.local_addr().to_string();
        let client = t
            .span("serve.connect", 0, || Client::connect(&addr))
            .map_err(|e| e.to_string())?;
        let jobs = inputs
            .iter()
            .map(|i| TraceSubmission::from_file(&i.path).map(|s| JobRequest::new(POLICIES[0], s)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let mut daemon = Daemon {
            server,
            client,
            jobs,
        };
        for i in 0..daemon.jobs.len() {
            daemon.submit(t, i, POLICIES[0])?;
        }
        Ok(daemon)
    }

    /// The image of upload `i`.
    pub fn upload(&self, i: usize) -> Result<&[u8], String> {
        match self.jobs.get(i).map(|j| &j.trace) {
            Some(TraceSubmission::Bytes(b)) => Ok(b),
            _ => Err(format!("no inline upload {i}")),
        }
    }

    /// Submits upload `i` under `policy` and waits for the outcome.
    pub fn submit(&mut self, t: &mut Tracer, i: usize, policy: &str) -> Result<JobOutcome, String> {
        let request = self.jobs.get_mut(i).ok_or("no such upload")?;
        policy.clone_into(&mut request.policy);
        let client = &mut self.client;
        match t.span("serve.job", 1, || client.submit(request, |_, _| {})) {
            Ok(SubmitReply::Done(outcome)) => Ok(outcome),
            Ok(SubmitReply::Busy { .. }) => {
                Err("daemon answered Busy to a closed-loop client".to_owned())
            }
            Err(e) => Err(format!("submit {policy}: {e}")),
        }
    }

    /// The request last submitted for upload `i`.
    pub fn request(&self, i: usize) -> Option<&JobRequest> {
        self.jobs.get(i)
    }

    /// Says goodbye and stops the daemon, joining its threads.
    pub fn stop(self) -> Result<(), String> {
        let goodbye = self.client.goodbye().map_err(|e| e.to_string());
        self.server.shutdown();
        goodbye
    }
}

/// In-process outcome of `bytes` under `policy`: index, record, replay and
/// time, as the daemon does for an upload.
pub fn in_process(
    t: &mut Tracer,
    bytes: &[u8],
    policy: &str,
) -> Result<(Outcome, Option<String>), String> {
    let trace = t
        .span("traceio.index", bytes.len() as u64, || {
            BufferedTrace::from_slice(bytes)
        })
        .map_err(|e| e.to_string())?;
    let w = record_buffered(t, &trace)?;
    let (stats, ipc) = exact_eval(t, &w, policy);
    Ok((Outcome::of(&stats, ipc), conservation(&stats)))
}

/// The outcome a wire job reports.
pub fn wire_outcome(o: &JobOutcome) -> Outcome {
    Outcome {
        accesses: o.accesses,
        hits: o.hits,
        misses: o.misses,
        ipc_bits: o.ipc.to_bits(),
    }
}

/// Bytes one inline job moves over the wire: request, upload, and the
/// accept and done replies.
pub fn wire_bytes(request: &JobRequest, o: &JobOutcome) -> Result<u64, String> {
    let TraceSubmission::Bytes(bytes) = &request.trace else {
        return Err("not an inline upload".to_owned());
    };
    let mut buf = Vec::new();
    let mut frames = vec![Frame::SubmitJob {
        policy: request.policy.clone(),
        sets: request.sets,
        ways: request.ways,
        window: request.window,
        trace: TraceRef::Inline {
            total: bytes.len() as u64,
        },
    }];
    frames.extend(
        bytes
            .chunks(TRACE_CHUNK_BYTES)
            .map(|c| Frame::TraceChunk { bytes: c.to_vec() }),
    );
    frames.push(Frame::TraceEnd);
    frames.push(Frame::JobAccepted { job: o.job });
    frames.push(Frame::JobDone {
        job: o.job,
        workload: o.workload.clone(),
        instructions: o.instructions,
        accesses: o.accesses,
        hits: o.hits,
        misses: o.misses,
        windows: o.windows,
        ipc_bits: o.ipc.to_bits(),
    });
    for f in &frames {
        f.write_to(&mut buf).map_err(|e| e.to_string())?;
    }
    Ok(buf.len() as u64)
}

/// Runs the workload.
pub fn run(
    t: &mut Tracer,
    inputs: &[Input],
    seconds: f64,
    setups: usize,
    ops: &mut Ops,
) -> Result<Run, String> {
    let mut run = Run::default();
    let mut daemon = None;
    for _ in 0..setups {
        if let Some(d) = daemon.take() {
            Daemon::stop(d)?;
        }
        let setup = t.enter("bench.setup");
        let start = Instant::now();
        daemon = Some(Daemon::start(t, inputs)?);
        run.setup_s.push(start.elapsed().as_secs_f64());
        t.exit(setup, 0);
    }
    let mut daemon = daemon.ok_or("no set-up ran")?;

    // References, outside every timed region: the in-process outcome of
    // every upload and policy. Each must stay above MIN, and the v1 and
    // v2 images of a trace must give the same outcomes.
    let mut reference = Vec::new();
    let mut off = Tracer::new(false);
    for (i, input) in inputs.iter().enumerate() {
        let bytes = daemon.upload(i)?;
        let trace = BufferedTrace::from_slice(bytes).map_err(|e| e.to_string())?;
        let min = sdbp_optimal::simulate(&record_buffered(&mut off, &trace)?.llc, llc()).misses;
        let mut row = Vec::new();
        for policy in POLICIES {
            let (outcome, conserved) = in_process(&mut off, bytes, policy)?;
            row.push(outcome);
            ops.record(
                &format!("{} {policy} in-process", input.label()),
                [
                    conserved,
                    (outcome.misses < min)
                        .then(|| format!("misses {} below MIN {min}", outcome.misses)),
                ],
            );
        }
        reference.push(row);
    }
    for (pair, ins) in reference.chunks(2).zip(inputs.chunks(2)) {
        if let ([v1, v2], [i1, _]) = (pair, ins) {
            ops.record(
                &format!("{} v1 == v2", i1.bench),
                [(v1 != v2).then(|| format!("{v1:?} != {v2:?}"))],
            );
        }
    }

    let timed = t.enter("bench.loop");
    let mut deadline = Deadline::start(seconds, MIN_ROUNDS);
    let mut first = vec![true; inputs.len() * POLICIES.len()];
    while deadline.more(&mut run) {
        for (i, input) in inputs.iter().enumerate() {
            for (p, policy) in POLICIES.iter().enumerate() {
                let start = Instant::now();
                let done = daemon.submit(t, i, policy)?;
                run.job(i * POLICIES.len() + p, start);
                run.sim_instructions += done.instructions;
                let got = wire_outcome(&done);
                let want = reference.get(i).and_then(|r| r.get(p)).copied();
                if std::mem::take(&mut first[i * POLICIES.len() + p]) {
                    print_result(
                        &input.label(),
                        &format!("{policy}:wire"),
                        got.misses,
                        &format!(" ipc={}", got.ipc()),
                    );
                }
                ops.record(
                    &format!("{} {policy} wire", input.label()),
                    [
                        (done.hits + done.misses != done.accesses)
                            .then(|| "hits + misses != accesses".to_owned()),
                        (Some(got) != want).then(|| format!("wire {got:?} != in-process {want:?}")),
                    ],
                );
            }
        }
    }
    t.exit(timed, run.pooled_ms.len() as u64);
    daemon.stop()?;
    Ok(run)
}
