//! Storage and power accounting for dead block predictors (Tables I & II).
//!
//! Table I is exact arithmetic over the structures each predictor needs and
//! is reproduced bit-for-bit in [`storage`]. Table II in the paper comes
//! from CACTI 5.3, which we substitute with the analytic SRAM model in
//! [`power`]: leakage proportional to bits, dynamic energy proportional to
//! the bits activated per access scaled by an array-size wire factor, both
//! calibrated so the paper's baseline 2 MB LLC lands on its published
//! 2.75 W dynamic / 0.512 W leakage. The model preserves the ordering and
//! rough magnitudes of Table II (see DESIGN.md §3 for the substitution
//! rationale and EXPERIMENTS.md for measured-vs-paper values).

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

pub mod power;
pub mod storage;

pub use power::{PowerModel, PowerReport};
pub use storage::{predictor_storage, PredictorKind, StorageReport};
