//! `sdbp-serve` — the long-running policy-evaluation service.
//!
//! The paper's argument is that sampling dead block prediction is cheap
//! enough to *deploy*; this crate makes it cheap to *evaluate at scale*.
//! Instead of one process per `(trace, policy)` cell, a daemon holds the
//! policy registry and the `sdbp-engine` pool resident and accepts replay
//! jobs over TCP:
//!
//! * [`protocol`] — the length-prefixed binary frame codec (varints
//!   shared with the `.sdbt` container via `sdbp-traceio`), with version
//!   negotiation and typed [`FrameError`]s for every way a peer can be
//!   wrong.
//! * [`server`] — thread-per-connection sessions multiplexed onto a
//!   bounded job queue drained by executor threads. Each session is the
//!   only writer of its connection: an executor sends a job's window
//!   counts and final frame over the job's own channel and never waits
//!   on a client. Saturation is an explicit `Busy` reply, never an
//!   unbounded backlog; shutdown is a flag plus listener wakeup, never
//!   `process::exit`. Traces arrive one way, as inline uploads.
//! * [`client`] — a blocking client library the `sdbp-repro submit`
//!   subcommand (and the integration tests) drive.
//!
//! The determinism contract: a job submitted over the wire produces miss
//! counts and IPC byte-identical to the same replay run in-process. The
//! server replays with the exact pipeline `sdbp-repro trace replay`
//! uses, and floats travel the wire as `f64::to_bits`, so nothing is
//! lost to text formatting.

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::cast_possible_truncation
)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod error;
pub mod protocol;
pub mod server;
mod session;

pub use client::{Client, JobOutcome, JobRequest, SubmitReply, TraceSubmission};
pub use error::{FrameError, ServeError};
pub use protocol::{Frame, PROTOCOL_VERSION};
pub use server::{Server, ServerConfig};

use std::sync::{Condvar, Mutex, PoisonError};

/// Runs `f` on the mutex's data and releases the lock when `f` returns —
/// the only way serve takes a lock, so no guard can outlive the closure
/// and reach a socket write.
///
/// A poisoned mutex is recovered: job closures run under the engine's
/// panic isolation, so a poisoned lock here means the data is still
/// structurally sound (the panic was contained and reported as a
/// `JobFailure`), and recovering keeps the session layer reusable.
pub(crate) fn with_lock<T, R>(m: &Mutex<T>, f: impl FnOnce(&mut T) -> R) -> R {
    f(&mut m.lock().unwrap_or_else(PoisonError::into_inner))
}

/// Blocks on `cv` while `blocked` holds, then runs `f` under the same
/// lock and releases it when `f` returns; poisoning is recovered as in
/// [`with_lock`].
pub(crate) fn wait_then<T, R>(
    m: &Mutex<T>,
    cv: &Condvar,
    blocked: impl FnMut(&mut T) -> bool,
    f: impl FnOnce(&mut T) -> R,
) -> R {
    let guard = m.lock().unwrap_or_else(PoisonError::into_inner);
    f(&mut cv
        .wait_while(guard, blocked)
        .unwrap_or_else(PoisonError::into_inner))
}
