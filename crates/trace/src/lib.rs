//! Memory access traces and synthetic workload generation.
//!
//! This crate provides the instruction/memory-reference model consumed by the
//! cache hierarchy simulator (`sdbp-cache`) and the synthetic workload
//! *kernels* from which the benchmark suite (`sdbp-workloads`) is composed.
//!
//! # Why synthetic workloads?
//!
//! The paper ("Sampling Dead Block Prediction for Last-Level Caches",
//! MICRO-43 2010) evaluates on SPEC CPU 2006 SimPoint traces, which are not
//! redistributable. Dead block predictors learn a correlation between the
//! **program counter of the last instruction to touch a cache block** and the
//! block's death, so a faithful substitute must provide exactly that signal:
//! distinct PCs whose accesses terminate block lifetimes with distinct
//! probabilities, embedded in realistic mixes of streaming, looping, and
//! pointer-chasing behaviour. The [`kernel`] module provides those reuse
//! archetypes and [`synthetic`] composes them into full instruction streams.
//!
//! # Example
//!
//! ```
//! use sdbp_trace::kernel::{KernelSpec, ReusePattern};
//! use sdbp_trace::synthetic::{TraceBuilder};
//!
//! // A workload that streams over 8 MiB (dead-on-arrival blocks) while a
//! // small 64 KiB hot loop stays live.
//! let trace = TraceBuilder::new(0x5eed)
//!     .memory_fraction(0.35)
//!     .kernel(KernelSpec::streaming(8 << 20).weight(3.0))
//!     .kernel(KernelSpec::hot_set(64 << 10).weight(1.0))
//!     .build();
//! let instrs: Vec<_> = trace.take(1000).collect();
//! assert_eq!(instrs.len(), 1000);
//! ```

#![warn(missing_debug_implementations)]

pub mod access;
pub mod batch;
pub mod kernel;
pub mod rng;
pub mod source;
pub mod stats;
pub mod synthetic;

pub use access::{AccessKind, Addr, BlockAddr, Instr, MemRef, Pc};
pub use batch::{ColumnBuf, InstrBatch, InstrBatcher};
pub use source::{GeneratorSource, InstrStream, TraceSource};
pub use synthetic::{SyntheticTrace, TraceBuilder};
