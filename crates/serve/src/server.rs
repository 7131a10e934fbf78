//! The daemon: accept loop, bounded job queue, executor pool, and
//! graceful shutdown.
//!
//! Threading model:
//!
//! * one **accept** thread turning connections into session threads;
//! * one **session** thread per connection (the state machine lives in
//!   the `session` module) — it parses requests and parks on a
//!   `JobGate` while its job runs;
//! * `workers` **executor** threads popping the shared bounded queue and
//!   running jobs through the resident [`sdbp_engine::Engine`] (panic
//!   isolation + telemetry), streaming results straight to the
//!   submitting connection.
//!
//! Backpressure is the queue bound: when `queue_depth` jobs are already
//! waiting, a submission gets an immediate `Busy` frame instead of a
//! spot in an unbounded backlog. Shutdown is cooperative — a flag, a
//! condvar broadcast, a self-connect to wake the blocking accept call,
//! and socket shutdowns to unblock session reads. No library code calls
//! `process::exit`.

use crate::error::ServeError;
use crate::protocol::{ErrorCode, Frame};
use crate::{wait_then, with_lock};
use sdbp::replay::{ReplayError, ReplayMode, ReplayRequest};
use sdbp_cache::recorder::{try_record_batches, RecordedWorkload};
use sdbp_cache::replay::WindowStream;
use sdbp_cache::CacheConfig;
use sdbp_cpu::CoreModel;
use sdbp_engine::{Engine, Job};
use sdbp_traceio::format::fnv1a_words;
use sdbp_traceio::BufferedTrace;
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Everything a [`Server`] needs to start.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; `127.0.0.1:0` picks an ephemeral port (read it back
    /// via [`Server::local_addr`]).
    pub addr: String,
    /// Executor threads draining the job queue. `0` is allowed and means
    /// jobs are accepted and queued but never executed — the saturation
    /// tests use this to make backpressure deterministic.
    pub workers: usize,
    /// Bounded job-queue capacity; submissions beyond it get `Busy`.
    /// Clamped to at least 1.
    pub queue_depth: usize,
    /// Directory resolving `TraceRef::Archive` names; `None` rejects all
    /// archive submissions.
    pub trace_dir: Option<PathBuf>,
    /// Largest inline trace a client may stream, in bytes.
    pub max_inline_bytes: u64,
    /// Server display name sent in `HelloAck`.
    pub server_name: String,
    /// Set shards per replay job (see `DESIGN.md` §13). Jobs of at least
    /// [`shard_min_accesses`](ServerConfig::shard_min_accesses) accesses
    /// ask the replay front door (`sdbp::replay`) for this many shards;
    /// it shards set-local policies and runs everything else on the
    /// serial kernel. Either path produces bit-identical frames. Clamped
    /// to at least 1.
    pub shards: usize,
    /// Smallest job (in LLC accesses) the sharded path takes; defaults
    /// to [`SHARD_MIN_ACCESSES`]. Tests set 0 to shard everything.
    pub shard_min_accesses: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            queue_depth: 16,
            trace_dir: None,
            max_inline_bytes: 256 << 20,
            server_name: "sdbp-serve".to_owned(),
            shards: 1,
            shard_min_accesses: SHARD_MIN_ACCESSES,
        }
    }
}

/// Smallest job (in LLC accesses) worth set-sharding: below this the
/// per-shard queue build and thread spawn cost more than they recover.
pub const SHARD_MIN_ACCESSES: usize = 1 << 20;

/// A one-shot latch between a session and whoever writes its job's
/// frames. Each job has two: `accepted` opens once the session has put
/// `JobAccepted` on the wire (so the executor or the shutdown drain may
/// write the job's frames), `done` once the job reached a final frame
/// (`JobDone` or `ErrorReply`, so the session may resume reading).
#[derive(Debug, Default)]
pub(crate) struct JobGate {
    open: Mutex<bool>,
    cv: Condvar,
}

impl JobGate {
    /// Blocks until the gate is [`open`](JobGate::open).
    pub(crate) fn pass(&self) {
        wait_then(&self.open, &self.cv, |open| !*open, |_| ());
    }

    /// Opens the gate for every current and later [`pass`](JobGate::pass).
    pub(crate) fn open(&self) {
        with_lock(&self.open, |open| *open = true);
        self.cv.notify_all();
    }
}

/// One fully-received job waiting for an executor.
#[derive(Debug)]
pub(crate) struct QueuedJob {
    /// Server-assigned job id (already sent to the client).
    pub(crate) job: u64,
    /// The submitting session; scopes the job's recording memo hits.
    pub(crate) session: u64,
    /// Engine telemetry label, `serve/s{session}-j{job}/{policy}`.
    pub(crate) label: String,
    /// Raw policy spec string from the submission.
    pub(crate) policy: String,
    /// Validated LLC geometry.
    pub(crate) llc: CacheConfig,
    /// Accesses per streamed window; 0 disables window streaming.
    pub(crate) window: u32,
    /// The `.sdbt` file image to replay.
    pub(crate) trace: Vec<u8>,
    /// Instruction count from the (already validated) trace header, for
    /// engine throughput telemetry.
    pub(crate) instructions: u64,
    /// Telemetry source label (`wire:inline` or `file:{path}`).
    pub(crate) source: String,
    /// Write half of the submitting connection.
    pub(crate) stream: TcpStream,
    /// Opened by the session once `JobAccepted` is on the wire.
    pub(crate) accepted: Arc<JobGate>,
    /// Opened here once the job's final frame is on the wire.
    pub(crate) done: Arc<JobGate>,
}

/// State shared by the accept loop, sessions, and executors.
#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) shutdown: AtomicBool,
    pub(crate) queue: Mutex<VecDeque<QueuedJob>>,
    pub(crate) queue_cv: Condvar,
    pub(crate) queue_depth: usize,
    pub(crate) next_job: AtomicU64,
    pub(crate) trace_dir: Option<PathBuf>,
    pub(crate) max_inline_bytes: u64,
    pub(crate) server_name: String,
    /// Set shards per big-enough job ([`ServerConfig::shards`]).
    pub(crate) shards: usize,
    /// Smallest job that asks for shards
    /// ([`ServerConfig::shard_min_accesses`]).
    pub(crate) shard_min_accesses: usize,
    pub(crate) engine: Engine,
    /// The last successful recording, for the next job of its session.
    pub(crate) memo: RecordingMemo,
}

/// Which upload a recording was made from: the submitting session, the
/// upload's length and its word-folded FNV-1a hash (see `DESIGN.md` §11,
/// "Recording reuse").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct UploadKey {
    session: u64,
    len: usize,
    hash: u64,
}

impl UploadKey {
    /// The key of `upload` as submitted by `session`.
    fn of(session: u64, upload: &[u8]) -> UploadKey {
        UploadKey {
            session,
            len: upload.len(),
            hash: fnv1a_words(upload),
        }
    }
}

/// A one-slot memo of the last recording: a job whose upload matches the
/// slot's key replays the memoised recording instead of indexing and
/// recording its bytes again. The LLC demand stream does not depend on
/// the LLC policy (`DESIGN.md` §2), so one recording serves every policy
/// a session submits for the same upload.
#[derive(Default)]
pub(crate) struct RecordingMemo {
    slot: Mutex<Option<(UploadKey, Arc<RecordedWorkload>)>>,
}

impl RecordingMemo {
    /// The memoised recording of `key`, or `None` after emptying the
    /// slot: a miss frees the old recording before the new one is made,
    /// so the memo never holds two.
    fn hit_or_empty(&self, key: &UploadKey) -> Option<Arc<RecordedWorkload>> {
        let evicted = with_lock(&self.slot, |slot| match slot {
            Some((k, w)) if k == key => Ok(Arc::clone(w)),
            _ => Err(slot.take()),
        });
        // An evicted recording is dropped here, outside the lock.
        evicted.ok()
    }

    /// Memoises a successful recording of the upload keyed `key`.
    fn store(&self, key: UploadKey, recording: Arc<RecordedWorkload>) {
        let evicted = with_lock(&self.slot, |slot| slot.replace((key, recording)));
        drop(evicted);
    }
}

impl std::fmt::Debug for RecordingMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordingMemo").finish_non_exhaustive()
    }
}

/// A job's upload: the memoised recording on a hit, else the bytes to
/// index and record.
struct Upload {
    key: UploadKey,
    reused: Option<Arc<RecordedWorkload>>,
    bytes: Vec<u8>,
}

impl Upload {
    /// The upload's recording: the memoised one, or a fresh one (indexed
    /// in place and recorded through the columnar batch door) that is
    /// memoised once it succeeds. Decode-ahead validation happens at
    /// indexing time, so a corrupt upload fails before replay starts.
    /// The bytes are freed on return either way.
    fn recording(self, memo: &RecordingMemo) -> Result<Arc<RecordedWorkload>, (ErrorCode, String)> {
        if let Some(workload) = self.reused {
            return Ok(workload);
        }
        let bad_trace = |e: &dyn std::fmt::Display| (ErrorCode::BadTrace, e.to_string());
        let buffered = BufferedTrace::from_slice(&self.bytes).map_err(|e| bad_trace(&e))?;
        let meta = buffered.meta();
        let workload = try_record_batches(&meta.name, &mut buffered.batches(), meta.count, 0)
            .map_err(|e| bad_trace(&e))?;
        let workload = Arc::new(workload);
        memo.store(self.key, Arc::clone(&workload));
        Ok(workload)
    }
}

/// A live connection: the stream (to unblock reads at shutdown) and the
/// session thread handle.
#[derive(Debug)]
struct SessionSlot {
    stream: TcpStream,
    handle: JoinHandle<()>,
}

/// A running policy-evaluation daemon.
///
/// Dropping the server shuts it down gracefully; call
/// [`shutdown`](Server::shutdown) explicitly to control when (it is
/// idempotent).
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept: Mutex<Option<JoinHandle<()>>>,
    executors: Mutex<Vec<JoinHandle<()>>>,
    sessions: Arc<Mutex<Vec<SessionSlot>>>,
}

impl Server {
    /// Binds, spawns the executor pool and accept loop, and returns the
    /// running server.
    ///
    /// # Errors
    ///
    /// [`ServeError::Local`] when the address cannot be bound or a
    /// thread cannot be spawned.
    pub fn start(config: ServerConfig) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| ServeError::Local(format!("bind {}: {e}", config.addr)))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| ServeError::Local(format!("local_addr: {e}")))?;
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            queue_depth: config.queue_depth.max(1),
            next_job: AtomicU64::new(1),
            trace_dir: config.trace_dir,
            max_inline_bytes: config.max_inline_bytes,
            server_name: config.server_name,
            shards: config.shards.max(1),
            shard_min_accesses: config.shard_min_accesses,
            // Each executor runs one job at a time; the engine's own pool
            // stays serial so telemetry timing reflects the job itself.
            engine: Engine::with_workers(1),
            memo: RecordingMemo::default(),
        });

        let mut executors = Vec::with_capacity(config.workers);
        for i in 0..config.workers {
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("sdbp-serve-exec-{i}"))
                .spawn(move || executor_loop(&shared))
                .map_err(|e| ServeError::Local(format!("spawn executor: {e}")))?;
            executors.push(handle);
        }

        let sessions: Arc<Mutex<Vec<SessionSlot>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let sessions = Arc::clone(&sessions);
            std::thread::Builder::new()
                .name("sdbp-serve-accept".to_owned())
                .spawn(move || accept_loop(&shared, &listener, &sessions))
                .map_err(|e| ServeError::Local(format!("spawn accept loop: {e}")))?
        };

        Ok(Server {
            shared,
            local_addr,
            accept: Mutex::new(Some(accept)),
            executors: Mutex::new(executors),
            sessions,
        })
    }

    /// The bound address (resolves `:0` to the actual ephemeral port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The resident engine, for telemetry reports.
    #[must_use]
    pub fn engine(&self) -> &Engine {
        &self.shared.engine
    }

    /// Stops the server: finishes queued jobs (when executors exist),
    /// aborts the rest with `Shutdown` error frames, unblocks every
    /// session, and joins all threads. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        // Set under the queue lock, so an executor between its emptiness
        // check and its wait cannot miss the wake-up below.
        with_lock(&self.shared.queue, |_| {
            self.shared.shutdown.store(true, Ordering::SeqCst)
        });
        // Executors drain whatever is already queued, then exit.
        self.shared.queue_cv.notify_all();
        let executors: Vec<JoinHandle<()>> = with_lock(&self.executors, std::mem::take);
        for h in executors {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "join Err means the executor panicked; teardown proceeds"
            )]
            let _ = h.join();
        }
        // With no executors (workers = 0), queued jobs are aborted here.
        // Sessions can no longer enqueue: the submit path re-checks the
        // shutdown flag under the queue lock.
        let leftovers: VecDeque<QueuedJob> = with_lock(&self.shared.queue, std::mem::take);
        for q in leftovers {
            q.accepted.pass();
            let mut stream = q.stream;
            #[expect(
                clippy::let_underscore_must_use,
                reason = "best-effort abort notice; the peer may be gone"
            )]
            let _ = Frame::ErrorReply {
                code: ErrorCode::Shutdown,
                detail: "server is shutting down".to_owned(),
            }
            .write_to(&mut stream);
            q.done.open();
        }
        // Wake the blocking accept() and join the accept thread.
        #[expect(
            clippy::let_underscore_must_use,
            reason = "wake-up poke; a failed connect means accept() is gone"
        )]
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = with_lock(&self.accept, Option::take) {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "join Err means the accept thread panicked; teardown proceeds"
            )]
            let _ = h.join();
        }
        // Unblock session reads and join the session threads.
        let slots: Vec<SessionSlot> = with_lock(&self.sessions, std::mem::take);
        for s in &slots {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "socket may already be closed; that is the goal state"
            )]
            let _ = s.stream.shutdown(std::net::Shutdown::Both);
        }
        for s in slots {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "join Err means the session panicked; teardown proceeds"
            )]
            let _ = s.handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Turns accepted connections into session threads until shutdown.
fn accept_loop(
    shared: &Arc<Shared>,
    listener: &TcpListener,
    sessions: &Arc<Mutex<Vec<SessionSlot>>>,
) {
    let mut next_session: u64 = 1;
    for incoming in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = incoming else { continue };
        let Ok(peer) = stream.try_clone() else {
            continue;
        };
        let session = next_session;
        next_session += 1;
        let shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name(format!("sdbp-serve-session-{session}"))
            .spawn(move || crate::session::run_session(&shared, stream, session));
        with_lock(sessions, |slots| {
            // Closed connections leave finished threads behind; reap them
            // so a long-lived daemon's slot list stays proportional to
            // live sessions.
            slots.retain(|s| !s.handle.is_finished());
            if let Ok(handle) = spawned {
                slots.push(SessionSlot {
                    stream: peer,
                    handle,
                });
            }
        });
    }
}

/// Pops and executes queued jobs; exits once the queue is empty after
/// shutdown.
fn executor_loop(shared: &Shared) {
    let idle = |q: &mut VecDeque<_>| q.is_empty() && !shared.shutdown.load(Ordering::SeqCst);
    while let Some(job) = wait_then(&shared.queue, &shared.queue_cv, idle, VecDeque::pop_front) {
        execute_job(shared, job);
    }
}

/// What a successful replay hands back to the final `JobDone` frame.
struct DoneStats {
    workload: String,
    instructions: u64,
    accesses: u64,
    hits: u64,
    misses: u64,
    windows: u64,
    ipc_bits: u64,
}

/// Runs one job through the engine (panic isolation + telemetry) and
/// writes the final frame to the submitting connection.
fn execute_job(shared: &Shared, queued: QueuedJob) {
    let QueuedJob {
        job,
        session,
        label,
        policy,
        llc,
        window,
        trace,
        instructions,
        mut source,
        mut stream,
        accepted,
        done,
    } = queued;
    // JobAccepted precedes every frame of the job.
    accepted.pass();
    let key = UploadKey::of(session, &trace);
    let reused = shared.memo.hit_or_empty(&key);
    if reused.is_some() {
        source.push_str("+reused");
    }
    let upload = Upload {
        key,
        reused,
        bytes: trace,
    };
    let outcome = {
        let results_stream = &mut stream;
        shared.engine.run_one(
            &label,
            Job::new(label.clone(), move || {
                run_replay(job, &policy, llc, window, upload, shared, results_stream)
            })
            .accesses(instructions)
            .source(source),
        )
    };
    let final_frame = match outcome {
        Ok(Ok(done)) => Frame::JobDone {
            job,
            workload: done.workload,
            instructions: done.instructions,
            accesses: done.accesses,
            hits: done.hits,
            misses: done.misses,
            windows: done.windows,
            ipc_bits: done.ipc_bits,
        },
        Ok(Err((code, detail))) => Frame::ErrorReply { code, detail },
        Err(failure) => Frame::ErrorReply {
            code: ErrorCode::Internal,
            detail: failure.to_string(),
        },
    };
    #[expect(
        clippy::let_underscore_must_use,
        reason = "best-effort result delivery; a vanished client keeps the server up"
    )]
    let _ = final_frame.write_to(&mut stream);
    done.open();
}

/// The replay pipeline — the same replay front door as `sdbp-repro trace
/// replay`, which is what makes wire results bit-identical to in-process
/// ones; a memoised recording equals a fresh one, so a memo hit streams
/// the same frames as a miss. Jobs of at least `shard_min_accesses`
/// accesses ask the door for the server's shard count (it shards only
/// set-local policies); since a sharded replay drives the window probe in
/// original access order, the streamed `WindowResult` frames are
/// byte-identical either way.
fn run_replay(
    job: u64,
    policy: &str,
    llc: CacheConfig,
    window: u32,
    upload: Upload,
    shared: &Shared,
    stream: &mut TcpStream,
) -> Result<DoneStats, (ErrorCode, String)> {
    let workload = upload.recording(&shared.memo)?;
    let spec: sdbp::registry::PolicySpec = policy
        .parse()
        .map_err(|e: sdbp::SpecError| (ErrorCode::BadSpec, e.to_string()))?;
    let shards = if workload.llc.len() >= shared.shard_min_accesses {
        shared.shards
    } else {
        1
    };
    let request = |mode| ReplayRequest {
        stream: &workload.llc,
        llc,
        policy: &spec,
        mode,
        shards,
        cores: 1,
    };
    let failed = |e: ReplayError| {
        let code = match e {
            ReplayError::Spec(_) => ErrorCode::BadSpec,
            ReplayError::Span(_) | ReplayError::Shard(_) | ReplayError::Sample(_) => {
                ErrorCode::Internal
            }
        };
        (code, e.to_string())
    };
    let (outcome, windows) = if window > 0 {
        // Stream each completed window as it closes. A dead connection
        // stops the writes but not the replay: the job still completes
        // and its telemetry stays truthful.
        let mut writing = true;
        let mut probe = WindowStream::new(window as usize, |index, misses| {
            if writing {
                writing = Frame::WindowResult { job, index, misses }
                    .write_to(stream)
                    .is_ok();
            }
        });
        let outcome = request(ReplayMode::Exact {
            probe: Some(&mut probe),
        })
        .run()
        .map_err(failed)?;
        probe.finish();
        (outcome, probe.windows())
    } else {
        (
            request(ReplayMode::Exact { probe: None })
                .run()
                .map_err(failed)?,
            0,
        )
    };
    let ipc = CoreModel::default()
        .simulate(&workload.records, &outcome.hits)
        .ipc();
    Ok(DoneStats {
        workload: workload.name.clone(),
        instructions: workload.instructions(),
        accesses: workload.llc.len() as u64,
        hits: outcome.stats.hits,
        misses: outcome.stats.misses,
        windows,
        ipc_bits: ipc.to_bits(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::time::Duration;

    /// The executor writes no frame of a job until the session opens its
    /// `accepted` gate, so `JobAccepted` always comes first on the wire.
    #[test]
    fn executor_writes_nothing_before_the_job_is_accepted() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        let shared = Shared {
            shutdown: AtomicBool::new(false),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            queue_depth: 1,
            next_job: AtomicU64::new(1),
            trace_dir: None,
            max_inline_bytes: 0,
            server_name: String::new(),
            shards: 1,
            shard_min_accesses: SHARD_MIN_ACCESSES,
            engine: Engine::with_workers(1),
            memo: RecordingMemo::default(),
        };
        let (accepted, done) = (Arc::new(JobGate::default()), Arc::new(JobGate::default()));
        let job = QueuedJob {
            job: 1,
            session: 1,
            label: "gate".to_owned(),
            policy: "lru".to_owned(),
            llc: CacheConfig { sets: 1, ways: 1 },
            window: 0,
            // Not a trace: the job fails at once with a BadTrace reply.
            trace: vec![0u8; 8],
            instructions: 0,
            source: "test".to_owned(),
            stream,
            accepted: Arc::clone(&accepted),
            done: Arc::clone(&done),
        };
        std::thread::scope(|s| {
            s.spawn(|| execute_job(&shared, job));
            client
                .set_read_timeout(Some(Duration::from_millis(300)))
                .expect("timeout");
            let early = client.read(&mut [0u8; 1]);
            assert!(
                early.is_err(),
                "a frame was written before JobAccepted: {early:?}"
            );
            accepted.open();
            client.set_read_timeout(None).expect("blocking");
            match Frame::read_from(&mut client).expect("readable") {
                Some(Frame::ErrorReply {
                    code: ErrorCode::BadTrace,
                    ..
                }) => {}
                other => panic!("expected the job's BadTrace reply, got {other:?}"),
            }
            done.pass();
        });
    }
}
