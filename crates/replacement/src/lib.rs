//! Baseline LLC replacement policies the paper compares against.
//!
//! * [`random::Random`] — the low-cost default policy SDBP rescues in the
//!   paper's Figures 7/8/10(b).
//! * [`dip::Dip`] / [`dip::Tadip`] — (thread-aware) dynamic insertion
//!   \[Qureshi et al. ISCA'07, Jaleel et al. PACT'08\].
//! * [`plru::PseudoLru`] — the tree-PLRU approximation real
//!   high-associativity caches implement (the paper's motivation for not
//!   relying on true LRU).
//! * [`rrip::Srrip`] / [`rrip::Drrip`] — re-reference interval prediction
//!   \[Jaleel et al. ISCA'10\]; `Drrip` with more than one core is the
//!   thread-aware variant the paper calls "multi-core RRIP".
//!
//! True LRU itself lives in [`sdbp_cache::policy::Lru`] because the cache
//! model uses it as its default.
//!
//! All policies implement [`sdbp_cache::ReplacementPolicy`] and are
//! deterministic given their constructor inputs (randomized policies take a
//! seed).

#![warn(clippy::cast_possible_truncation)]
#![warn(missing_debug_implementations)]

pub mod dip;
pub mod dueling;
pub mod plru;
pub mod random;
pub mod registry;
pub mod rrip;

pub use dip::{Dip, Tadip};
pub use dueling::{DuelingMap, Psel, Role};
pub use plru::PseudoLru;
pub use random::Random;
pub use registry::{PolicyEntry, PolicySpec, Registry, SpecError};
pub use rrip::{Drrip, Srrip};
