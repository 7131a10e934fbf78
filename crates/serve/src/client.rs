//! Blocking client for the service: handshake, job submission, and
//! result streaming. `sdbp-repro submit` and the integration tests are
//! thin wrappers around [`Client`].

use crate::error::ServeError;
use crate::protocol::{write_trace_chunk, Frame, TraceRef, PROTOCOL_VERSION, TRACE_CHUNK_BYTES};
use std::io::BufReader;
use std::net::TcpStream;
use std::path::Path;

/// The trace of a submission, streamed inline.
///
/// Inline bytes are the only way to send a trace. The enum is
/// `#[non_exhaustive]`, so a match on it outside this crate keeps its
/// fallback arm without an irrefutable-pattern warning.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum TraceSubmission {
    /// A `.sdbt` file image streamed inline.
    Bytes(Vec<u8>),
}

impl TraceSubmission {
    /// Reads `path` for inline submission.
    ///
    /// # Errors
    ///
    /// [`ServeError::Local`] when the file cannot be read.
    pub fn from_file(path: &Path) -> Result<Self, ServeError> {
        std::fs::read(path)
            .map(TraceSubmission::Bytes)
            .map_err(|e| ServeError::Local(format!("{}: {e}", path.display())))
    }
}

/// One replay job to submit.
#[derive(Clone, Debug)]
pub struct JobRequest {
    /// Registry policy spec, e.g. `lru` or `sampler:assoc=16`.
    pub policy: String,
    /// LLC sets (power of two).
    pub sets: u32,
    /// LLC associativity.
    pub ways: u32,
    /// Accesses per streamed window; 0 disables window streaming.
    pub window: u32,
    /// The trace to replay.
    pub trace: TraceSubmission,
}

impl JobRequest {
    /// A request with the paper's single-core LLC geometry (2048 sets,
    /// 16 ways) and window streaming off.
    #[must_use]
    pub fn new(policy: impl Into<String>, trace: TraceSubmission) -> Self {
        JobRequest {
            policy: policy.into(),
            sets: 2048,
            ways: 16,
            window: 0,
            trace,
        }
    }
}

/// Final counters of a completed job.
#[derive(Clone, PartialEq, Debug)]
pub struct JobOutcome {
    /// Server-assigned job id.
    pub job: u64,
    /// Workload name from the trace header.
    pub workload: String,
    /// Instructions replayed.
    pub instructions: u64,
    /// LLC accesses replayed.
    pub accesses: u64,
    /// LLC hits.
    pub hits: u64,
    /// LLC misses.
    pub misses: u64,
    /// Windows streamed (0 when windowing was off).
    pub windows: u64,
    /// IPC from the timing model (bit-exact from the wire).
    pub ipc: f64,
}

impl JobOutcome {
    /// Misses per kilo-instruction, the same formula the in-process
    /// replay path reports.
    #[must_use]
    pub fn mpki(&self) -> f64 {
        self.misses as f64 * 1000.0 / self.instructions.max(1) as f64
    }
}

/// How the server answered a submission.
#[derive(Clone, PartialEq, Debug)]
pub enum SubmitReply {
    /// The job queue was full; retry later.
    Busy {
        /// The saturated queue's capacity.
        queue_depth: u32,
    },
    /// The job ran to completion.
    Done(JobOutcome),
}

/// A connected, handshaken session with a serve daemon.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    server: String,
    queue_depth: u32,
}

impl Client {
    /// Connects to `addr` and performs the `Hello`/`HelloAck` handshake.
    ///
    /// # Errors
    ///
    /// [`ServeError::Local`] on connection failure,
    /// [`ServeError::Version`] on a protocol-version mismatch,
    /// [`ServeError::Remote`] when the server refuses the handshake.
    pub fn connect(addr: &str) -> Result<Client, ServeError> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| ServeError::Local(format!("connect {addr}: {e}")))?;
        #[expect(
            clippy::let_underscore_must_use,
            reason = "disabling Nagle is a latency hint; a socket that refuses it still carries frames"
        )]
        let _ = stream.set_nodelay(true);
        let writer = stream
            .try_clone()
            .map_err(|e| ServeError::Local(format!("clone stream: {e}")))?;
        let mut client = Client {
            reader: BufReader::new(stream),
            writer,
            server: String::new(),
            queue_depth: 0,
        };
        Frame::Hello {
            version: PROTOCOL_VERSION,
            client: "sdbp-serve-client".to_owned(),
        }
        .write_to(&mut client.writer)?;
        match client.read_frame("HelloAck")? {
            Frame::HelloAck {
                version,
                server,
                queue_depth,
            } => {
                if version != PROTOCOL_VERSION {
                    return Err(ServeError::Version {
                        ours: PROTOCOL_VERSION,
                        theirs: version,
                    });
                }
                client.server = server;
                client.queue_depth = queue_depth;
                Ok(client)
            }
            Frame::ErrorReply { code, detail } => Err(ServeError::Remote { code, detail }),
            other => Err(ServeError::Protocol {
                expected: "HelloAck",
                got: other.name(),
            }),
        }
    }

    /// The server's display name from the handshake.
    #[must_use]
    pub fn server_name(&self) -> &str {
        &self.server
    }

    /// The server's job-queue capacity from the handshake.
    #[must_use]
    pub fn queue_depth(&self) -> u32 {
        self.queue_depth
    }

    /// Submits one job and blocks until it finishes (or bounces off a
    /// full queue). `on_window` receives each streamed
    /// `(window_index, misses)` pair as the replay produces it.
    ///
    /// # Errors
    ///
    /// [`ServeError::Remote`] for server-reported failures (bad spec,
    /// bad trace, shutdown, ...), [`ServeError::Frame`] for wire
    /// failures, [`ServeError::Protocol`] for out-of-order frames.
    pub fn submit(
        &mut self,
        request: &JobRequest,
        mut on_window: impl FnMut(u64, u64),
    ) -> Result<SubmitReply, ServeError> {
        let TraceSubmission::Bytes(bytes) = &request.trace;
        Frame::SubmitJob {
            policy: request.policy.clone(),
            sets: request.sets,
            ways: request.ways,
            window: request.window,
            trace: TraceRef::Inline {
                total: bytes.len() as u64,
            },
        }
        .write_to(&mut self.writer)?;
        for chunk in bytes.chunks(TRACE_CHUNK_BYTES) {
            write_trace_chunk(&mut self.writer, chunk)?;
        }
        Frame::TraceEnd.write_to(&mut self.writer)?;
        let job = match self.read_frame("JobAccepted or Busy")? {
            Frame::JobAccepted { job } => job,
            Frame::Busy { queue_depth } => return Ok(SubmitReply::Busy { queue_depth }),
            Frame::ErrorReply { code, detail } => return Err(ServeError::Remote { code, detail }),
            other => {
                return Err(ServeError::Protocol {
                    expected: "JobAccepted or Busy",
                    got: other.name(),
                })
            }
        };
        loop {
            match self.read_frame("WindowResult or JobDone")? {
                Frame::WindowResult {
                    job: j,
                    index,
                    misses,
                } if j == job => {
                    on_window(index, misses);
                }
                Frame::JobDone {
                    job: j,
                    workload,
                    instructions,
                    accesses,
                    hits,
                    misses,
                    windows,
                    ipc_bits,
                } if j == job => {
                    return Ok(SubmitReply::Done(JobOutcome {
                        job: j,
                        workload,
                        instructions,
                        accesses,
                        hits,
                        misses,
                        windows,
                        ipc: f64::from_bits(ipc_bits),
                    }));
                }
                Frame::ErrorReply { code, detail } => {
                    return Err(ServeError::Remote { code, detail })
                }
                other => {
                    return Err(ServeError::Protocol {
                        expected: "WindowResult or JobDone",
                        got: other.name(),
                    })
                }
            }
        }
    }

    /// Announces the end of the session; the server closes the
    /// connection.
    ///
    /// # Errors
    ///
    /// Propagates wire failures writing the `Goodbye` frame.
    pub fn goodbye(mut self) -> Result<(), ServeError> {
        Frame::Goodbye.write_to(&mut self.writer)?;
        Ok(())
    }

    fn read_frame(&mut self, expected: &'static str) -> Result<Frame, ServeError> {
        match Frame::read_from(&mut self.reader)? {
            Some(frame) => Ok(frame),
            None => Err(ServeError::Protocol {
                expected,
                got: "end of stream",
            }),
        }
    }
}
