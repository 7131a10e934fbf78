//! Dead block predictors and the dead-block replacement-and-bypass policy.
//!
//! This crate hosts the machinery the paper's *comparisons* need:
//!
//! * [`predictor::DeadBlockPredictor`] — the interface every predictor
//!   implements (the paper's sampling predictor implements it in the
//!   `sdbp` crate).
//! * [`reftrace::RefTrace`] — the reference-trace predictor of Lai et
//!   al. \[ISCA'01\] (the paper's TDBP).
//! * [`counting::Lvp`] — the Live-time Predictor of Kharbutli & Solihin
//!   \[IEEE TC'08\] (the paper's CDBP), plus the companion Access Interval
//!   Predictor [`counting::Aip`] as an extension.
//! * [`dbrb::DeadBlockReplacement`] — the replacement+bypass policy of
//!   paper §V: prefer a predicted-dead victim, fall back to the default
//!   policy (LRU or random), and bypass dead-on-arrival fills.

#![warn(missing_debug_implementations)]

pub mod counting;
pub mod dbrb;
pub mod hash;
pub mod predictor;
pub mod reftrace;

pub use counting::{Aip, Lvp};
pub use dbrb::{DbrbConfig, DeadBlockReplacement};
pub use predictor::{DeadBlockPredictor, PredictorStats};
pub use reftrace::RefTrace;
