//! The daemon: accept loop, bounded job queue, executor pool, and
//! graceful shutdown.
//!
//! Threading model:
//!
//! * one **accept** thread turning connections into session threads;
//! * one **session** thread per connection (the state machine lives in
//!   the `session` module) — it parses requests and is the only writer
//!   of its connection;
//! * `workers` **executor** threads popping the shared bounded queue and
//!   running jobs through the resident [`sdbp_engine::Engine`] (panic
//!   isolation + telemetry). An executor never touches a socket: it
//!   sends the job's window counts and final frame over the job's own
//!   channel, and the session writes them, so a client that stops
//!   reading stalls only its own session.
//!
//! Backpressure is the queue bound: when `queue_depth` jobs are already
//! waiting, a submission gets an immediate `Busy` frame instead of a
//! spot in an unbounded backlog. Shutdown is cooperative — a flag, a
//! condvar broadcast, a self-connect to wake the blocking accept call,
//! and read-side socket shutdowns to unblock session reads. No library
//! code calls `process::exit`.

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
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
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
    /// Largest inline trace a client may stream, in bytes.
    pub max_inline_bytes: u64,
    /// Server display name sent in `HelloAck`.
    pub server_name: String,
    /// Has no effect: every job replays on the one serial replay kernel.
    /// Kept only so that configs which still set it build; it is slated
    /// for removal.
    pub shards: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            queue_depth: 16,
            max_inline_bytes: 256 << 20,
            server_name: "sdbp-serve".to_owned(),
            shards: 1,
        }
    }
}

/// What an executor sends the session of a running job, in order: one
/// `Window` per closed window, then one `Done`.
#[derive(Debug)]
pub(crate) enum JobEvent {
    /// Window `index` closed with this many misses.
    Window {
        /// 0-based window index.
        index: u64,
        /// Misses in the window.
        misses: u64,
    },
    /// The job's final frame, `JobDone` or `ErrorReply`.
    Done(Box<Frame>),
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
    /// The submitting session's end of the job's channel.
    pub(crate) events: Sender<JobEvent>,
}

/// State shared by the accept loop, sessions, and executors.
#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) shutdown: AtomicBool,
    pub(crate) queue: Mutex<VecDeque<QueuedJob>>,
    pub(crate) queue_cv: Condvar,
    pub(crate) queue_depth: usize,
    pub(crate) next_job: AtomicU64,
    pub(crate) max_inline_bytes: u64,
    pub(crate) server_name: String,
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
            max_inline_bytes: config.max_inline_bytes,
            server_name: config.server_name,
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
    /// drops the rest, unblocks every session's reads, and joins all
    /// threads. The session of each dropped job sees its channel close
    /// and answers `Shutdown` itself. Idempotent; also runs on drop.
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
        // With no executors (workers = 0), jobs are still queued: dropping
        // them closes their channels. Sessions can no longer enqueue: the
        // submit path re-checks the shutdown flag under the queue lock.
        drop(with_lock(&self.shared.queue, std::mem::take));
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
        // Unblock session reads and join the session threads. The write
        // side stays open, so a session still relaying its job's frames
        // (or the `Shutdown` reply) finishes before it sees end of stream.
        let slots: Vec<SessionSlot> = with_lock(&self.sessions, std::mem::take);
        for s in &slots {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "socket may already be closed; that is the goal state"
            )]
            let _ = s.stream.shutdown(Shutdown::Read);
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
/// sends its final frame to the submitting session.
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
        events,
    } = queued;
    let key = UploadKey::of(session, &trace);
    let reused = shared.memo.hit_or_empty(&key);
    let source = if reused.is_some() {
        "wire:inline+reused"
    } else {
        "wire:inline"
    };
    let upload = Upload {
        key,
        reused,
        bytes: trace,
    };
    let outcome = shared.engine.run_one(
        &label,
        Job::new(label.clone(), || {
            run_replay(&policy, llc, window, upload, shared, &events)
        })
        .accesses(instructions)
        .source(source),
    );
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
        reason = "a session that is gone has no one to tell; the job still completed"
    )]
    let _ = events.send(JobEvent::Done(Box::new(final_frame)));
}

/// The replay pipeline — the same replay front door as `sdbp-repro trace
/// replay`, which is what makes wire results bit-identical to in-process
/// ones; a memoised recording equals a fresh one, so a memo hit streams
/// the same windows as a miss.
fn run_replay(
    policy: &str,
    llc: CacheConfig,
    window: u32,
    upload: Upload,
    shared: &Shared,
    events: &Sender<JobEvent>,
) -> Result<DoneStats, (ErrorCode, String)> {
    let workload = upload.recording(&shared.memo)?;
    let spec: sdbp::registry::PolicySpec = policy
        .parse()
        .map_err(|e: sdbp::SpecError| (ErrorCode::BadSpec, e.to_string()))?;
    let request = |mode| ReplayRequest {
        stream: &workload.llc,
        llc,
        policy: &spec,
        mode,
        cores: 1,
    };
    let failed = |e: ReplayError| {
        let code = match e {
            ReplayError::Spec(_) => ErrorCode::BadSpec,
            ReplayError::Span(_) | ReplayError::Sample(_) => ErrorCode::Internal,
        };
        (code, e.to_string())
    };
    let (outcome, windows) = if window > 0 {
        // Send each completed window as it closes. A session that is gone
        // stops the sends but not the replay: the job still completes and
        // its telemetry stays truthful.
        let mut open = true;
        let mut probe = WindowStream::new(window as usize, |index, misses| {
            if open {
                open = events.send(JobEvent::Window { index, misses }).is_ok();
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
