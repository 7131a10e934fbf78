//! Experiment harness: regenerates every table and figure of the paper.
//!
//! The `sdbp-repro` binary dispatches to one experiment module per paper
//! artifact; the [`runner`] module holds the shared machinery (run
//! options, recording, the memoised matrix, replay + timing),
//! [`flags`] the one command-line parser, and
//! [`table`] the plain-text table renderer used for all output.
//!
//! Run `cargo run --release -p sdbp-harness --bin sdbp-repro -- list` for
//! the experiment index.

#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod flags;
pub mod runner;
pub mod servecmd;
pub mod table;
pub mod tracecmd;

pub use runner::{Cell, RecordStore, RunConfig, SingleResult};
