//! The `.sdbs` sampling-plan container: what to replay and how to
//! extrapolate, persisted next to the `.sdbt` trace it was built from.
//!
//! ```text
//! file := magic(8) version(u32) body_len(u64) body fnv(u64)
//! body := varint fields, in order:
//!         source_len window warmup_windows seed k bound_bits
//!         name_len name_bytes
//!         n_clusters representatives[n_clusters]
//!         n_windows assignment[n_windows]
//! ```
//!
//! All fixed-width integers are little-endian; the trailing checksum is
//! FNV-1a 64 over everything before it (magic through body), per the
//! `.sdbt` conventions in `sdbp-traceio`. Every way the file can be
//! unusable maps to a [`PlanError`] variant — corruption is a typed
//! error, never a panic.

use sdbp_traceio::format::{fnv1a, get_varint, put_varint};
use std::fmt;
use std::path::Path;

/// Magic bytes identifying an `.sdbs` sampling plan.
pub const PLAN_MAGIC: [u8; 8] = *b"SDBSPLAN";

/// Newest plan version this build reads and writes.
pub const PLAN_VERSION: u32 = 1;

/// Longest source-trace name a plan encodes (mirrors the `.sdbt` header
/// limit).
pub const MAX_SOURCE_LEN: usize = 4096;

/// Why a sampling plan could not be read, written, or trusted.
#[derive(Debug)]
pub enum PlanError {
    /// An underlying filesystem or stream error.
    Io(std::io::Error),
    /// The file does not start with the `.sdbs` magic.
    BadMagic {
        /// The first eight bytes actually found.
        found: [u8; 8],
    },
    /// The plan was written by a newer format version than this build
    /// understands.
    UnsupportedVersion {
        /// Version recorded in the file.
        found: u32,
        /// Newest version this build supports.
        supported: u32,
    },
    /// The file ended before the structure it promised was complete.
    Truncated {
        /// Which structure was being read when the bytes ran out.
        context: &'static str,
    },
    /// The trailing whole-file checksum did not match the bytes read.
    Checksum {
        /// Checksum recorded in the file.
        found: u64,
        /// Checksum of the bytes actually read.
        computed: u64,
    },
    /// The bytes decoded but describe an impossible plan (bad varint,
    /// dangling cluster reference, out-of-range representative, ...).
    Malformed {
        /// What specifically is inconsistent.
        detail: String,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Io(e) => write!(f, "plan i/o failed: {e}"),
            PlanError::BadMagic { found } => {
                write!(f, "not an .sdbs plan (magic {found:02x?})")
            }
            PlanError::UnsupportedVersion { found, supported } => write!(
                f,
                "plan format version {found} is newer than supported version {supported}"
            ),
            PlanError::Truncated { context } => {
                write!(f, "plan truncated while reading {context}")
            }
            PlanError::Checksum { found, computed } => write!(
                f,
                "plan checksum mismatch: file says {found:#018x}, bytes hash to {computed:#018x}"
            ),
            PlanError::Malformed { detail } => write!(f, "plan malformed: {detail}"),
        }
    }
}

impl std::error::Error for PlanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlanError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PlanError {
    fn from(e: std::io::Error) -> Self {
        PlanError::Io(e)
    }
}

/// A complete sampling plan: the windowing, the cluster structure, and
/// the per-cluster representative windows to replay.
#[derive(Clone, Debug, PartialEq)]
pub struct SamplingPlan {
    /// Name of the source workload/trace the plan was built from.
    pub source: String,
    /// Accesses in the source LLC stream; a plan only applies to a stream
    /// of exactly this length.
    pub source_len: u64,
    /// Accesses per window.
    pub window: u32,
    /// Windows replayed (unmeasured) before each representative to warm
    /// the cache.
    pub warmup_windows: u32,
    /// Clustering seed the plan was built with (provenance).
    pub seed: u64,
    /// Clusters requested at build time (the plan may hold fewer).
    pub k: u32,
    /// Stated relative-error bound on the extrapolated miss count.
    pub bound: f64,
    /// Representative window of each cluster, indexed by cluster id.
    pub representatives: Vec<u64>,
    /// Cluster id of each window, in stream order.
    pub assignment: Vec<u32>,
}

impl SamplingPlan {
    /// Windows the plan covers.
    pub fn num_windows(&self) -> usize {
        self.assignment.len()
    }

    /// Clusters the plan holds.
    pub fn clusters(&self) -> usize {
        self.representatives.len()
    }

    /// Windows per cluster, indexed by cluster id.
    pub fn populations(&self) -> Vec<u64> {
        let mut pops = vec![0u64; self.representatives.len()];
        for &c in &self.assignment {
            if let Some(p) = pops.get_mut(c as usize) {
                *p += 1;
            }
        }
        pops
    }

    /// Accesses a sampled replay under this plan will touch (warmup plus
    /// measured), before clamping at stream edges.
    pub fn planned_replay_accesses(&self) -> u64 {
        let per_rep = u64::from(self.window) * (u64::from(self.warmup_windows) + 1);
        per_rep * self.representatives.len() as u64
    }

    /// Structural validation: every invariant `from_bytes` enforces on
    /// untrusted input, applied to an in-memory plan.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::Malformed`] naming the first violated
    /// invariant.
    pub fn validate(&self) -> Result<(), PlanError> {
        let malformed = |detail: String| Err(PlanError::Malformed { detail });
        if self.window == 0 {
            return malformed("window must be non-zero".into());
        }
        if self.source.len() > MAX_SOURCE_LEN {
            return malformed(format!(
                "source name of {} bytes exceeds the {MAX_SOURCE_LEN}-byte limit",
                self.source.len()
            ));
        }
        if !self.bound.is_finite() || self.bound < 0.0 || self.bound > 1.0 {
            return malformed(format!("error bound {} outside [0, 1]", self.bound));
        }
        let windows = self.source_len.div_ceil(u64::from(self.window));
        if self.assignment.len() as u64 != windows {
            return malformed(format!(
                "{}-access stream at window {} needs {windows} windows, plan has {}",
                self.source_len,
                self.window,
                self.assignment.len()
            ));
        }
        if windows > 0 && self.representatives.is_empty() {
            return malformed("plan covers windows but has no representatives".into());
        }
        let clusters = self.representatives.len() as u64;
        for (w, &c) in self.assignment.iter().enumerate() {
            if u64::from(c) >= clusters {
                return malformed(format!(
                    "window {w} assigned to cluster {c}, but plan has {clusters} clusters"
                ));
            }
        }
        for (c, &rep) in self.representatives.iter().enumerate() {
            if rep >= windows {
                return malformed(format!(
                    "cluster {c} representative window {rep} out of range ({windows} windows)"
                ));
            }
            let rep_cluster = self
                .assignment
                .get(usize::try_from(rep).unwrap_or(usize::MAX))
                .copied();
            if rep_cluster != Some(u32::try_from(c).unwrap_or(u32::MAX)) {
                return malformed(format!(
                    "cluster {c} representative window {rep} is assigned elsewhere"
                ));
            }
        }
        Ok(())
    }

    /// Serializes the plan, including magic, version, and trailing
    /// checksum.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(64 + self.assignment.len());
        put_varint(&mut body, self.source_len);
        put_varint(&mut body, u64::from(self.window));
        put_varint(&mut body, u64::from(self.warmup_windows));
        put_varint(&mut body, self.seed);
        put_varint(&mut body, u64::from(self.k));
        put_varint(&mut body, self.bound.to_bits());
        let name = self.source.as_bytes();
        put_varint(&mut body, name.len() as u64);
        body.extend_from_slice(name);
        put_varint(&mut body, self.representatives.len() as u64);
        for &rep in &self.representatives {
            put_varint(&mut body, rep);
        }
        put_varint(&mut body, self.assignment.len() as u64);
        for &c in &self.assignment {
            put_varint(&mut body, u64::from(c));
        }

        let mut out = Vec::with_capacity(8 + 4 + 8 + body.len() + 8);
        out.extend_from_slice(&PLAN_MAGIC);
        out.extend_from_slice(&PLAN_VERSION.to_le_bytes());
        out.extend_from_slice(&(body.len() as u64).to_le_bytes());
        out.extend_from_slice(&body);
        let fnv = fnv1a(&out);
        out.extend_from_slice(&fnv.to_le_bytes());
        out
    }

    /// Parses and validates a plan from its serialized form.
    ///
    /// # Errors
    ///
    /// Returns the [`PlanError`] variant naming what is wrong: foreign
    /// magic, future version, truncation, checksum mismatch, or a
    /// structurally impossible plan.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PlanError> {
        let mut pos = 0usize;
        let magic = read_array::<8>(bytes, &mut pos, "magic")?;
        if magic != PLAN_MAGIC {
            return Err(PlanError::BadMagic { found: magic });
        }
        let version = u32::from_le_bytes(read_array::<4>(bytes, &mut pos, "version")?);
        if version > PLAN_VERSION {
            return Err(PlanError::UnsupportedVersion {
                found: version,
                supported: PLAN_VERSION,
            });
        }
        let body_len = u64::from_le_bytes(read_array::<8>(bytes, &mut pos, "body length")?);
        let body_end = pos
            .checked_add(usize::try_from(body_len).unwrap_or(usize::MAX))
            .ok_or(PlanError::Truncated { context: "body" })?;
        if bytes.len() < body_end.saturating_add(8) {
            return Err(PlanError::Truncated { context: "body" });
        }
        let hashed = bytes
            .get(..body_end)
            .ok_or(PlanError::Truncated { context: "body" })?;
        let computed = fnv1a(hashed);
        let mut fnv_pos = body_end;
        let found = u64::from_le_bytes(read_array::<8>(bytes, &mut fnv_pos, "checksum")?);
        if found != computed {
            return Err(PlanError::Checksum { found, computed });
        }
        if bytes.len() != fnv_pos {
            return Err(PlanError::Malformed {
                detail: format!("{} trailing bytes after checksum", bytes.len() - fnv_pos),
            });
        }

        let body = bytes
            .get(pos..body_end)
            .ok_or(PlanError::Truncated { context: "body" })?;
        let mut at = 0usize;
        let mut next = |what: &'static str| -> Result<u64, PlanError> {
            get_varint(body, &mut at).ok_or(PlanError::Truncated { context: what })
        };
        let source_len = next("source length")?;
        let window = field_u32(next("window")?, "window")?;
        let warmup_windows = field_u32(next("warmup windows")?, "warmup windows")?;
        let seed = next("seed")?;
        let k = field_u32(next("k")?, "k")?;
        let bound = f64::from_bits(next("bound")?);
        let name_len = usize::try_from(next("name length")?)
            .ok()
            .filter(|&l| l <= MAX_SOURCE_LEN)
            .ok_or_else(|| PlanError::Malformed {
                detail: "source name length exceeds limit".into(),
            })?;
        let name_end = at.checked_add(name_len).ok_or(PlanError::Truncated {
            context: "source name",
        })?;
        let name = body.get(at..name_end).ok_or(PlanError::Truncated {
            context: "source name",
        })?;
        at = name_end;
        let source = String::from_utf8(name.to_vec()).map_err(|_| PlanError::Malformed {
            detail: "source name is not UTF-8".into(),
        })?;
        let mut next = |what: &'static str| -> Result<u64, PlanError> {
            get_varint(body, &mut at).ok_or(PlanError::Truncated { context: what })
        };
        let n_clusters = read_count(next("cluster count")?, "clusters")?;
        let mut representatives = Vec::with_capacity(n_clusters);
        for _ in 0..n_clusters {
            representatives.push(next("representative")?);
        }
        let n_windows = read_count(next("window count")?, "windows")?;
        let mut assignment = Vec::with_capacity(n_windows);
        for _ in 0..n_windows {
            assignment.push(field_u32(next("assignment")?, "assignment entry")?);
        }
        if at != body.len() {
            return Err(PlanError::Malformed {
                detail: format!("{} undecoded bytes at end of body", body.len() - at),
            });
        }

        let plan = SamplingPlan {
            source,
            source_len,
            window,
            warmup_windows,
            seed,
            k,
            bound,
            representatives,
            assignment,
        };
        plan.validate()?;
        Ok(plan)
    }

    /// Writes the plan to `path` (atomically enough for CI: full buffer,
    /// single `write`).
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::Io`] on filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), PlanError> {
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Reads and validates a plan from `path`.
    ///
    /// # Errors
    ///
    /// Propagates every [`PlanError`] that [`SamplingPlan::from_bytes`]
    /// reports, plus [`PlanError::Io`] for filesystem failures.
    pub fn load(path: &Path) -> Result<Self, PlanError> {
        Self::from_bytes(&std::fs::read(path)?)
    }
}

/// Reads `N` little-endian bytes at `*pos`, advancing it.
fn read_array<const N: usize>(
    bytes: &[u8],
    pos: &mut usize,
    context: &'static str,
) -> Result<[u8; N], PlanError> {
    let end = pos.checked_add(N).ok_or(PlanError::Truncated { context })?;
    let slice = bytes
        .get(*pos..end)
        .ok_or(PlanError::Truncated { context })?;
    let mut out = [0u8; N];
    for (o, b) in out.iter_mut().zip(slice.iter()) {
        *o = *b;
    }
    *pos = end;
    Ok(out)
}

/// Narrows a decoded varint to `u32`, rejecting wider claims as
/// corruption.
fn field_u32(v: u64, what: &str) -> Result<u32, PlanError> {
    u32::try_from(v).map_err(|_| PlanError::Malformed {
        detail: format!("{what} {v} exceeds u32"),
    })
}

/// Narrows a decoded element count, rejecting claims that could not fit
/// in memory (a length-bomb guard: counts are validated against the
/// stream geometry later, this only prevents absurd pre-allocations).
fn read_count(v: u64, what: &str) -> Result<usize, PlanError> {
    usize::try_from(v)
        .ok()
        .filter(|&n| n <= (1 << 32))
        .ok_or_else(|| PlanError::Malformed {
            detail: format!("{what} count {v} is absurd"),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn small_plan() -> SamplingPlan {
        SamplingPlan {
            source: "unit".into(),
            source_len: 10_000,
            window: 1000,
            warmup_windows: 1,
            seed: 42,
            k: 3,
            bound: 0.05,
            representatives: vec![0, 3, 7],
            assignment: vec![0, 1, 2, 1, 0, 0, 1, 2, 2, 0],
        }
    }

    #[test]
    fn round_trips_bit_exactly() {
        let plan = small_plan();
        plan.validate().expect("fixture is valid");
        let bytes = plan.to_bytes();
        let back = SamplingPlan::from_bytes(&bytes).expect("round trip");
        assert_eq!(back, plan);
        assert_eq!(back.to_bytes(), bytes, "serialization must be canonical");
    }

    #[test]
    fn accounting_helpers() {
        let plan = small_plan();
        assert_eq!(plan.num_windows(), 10);
        assert_eq!(plan.clusters(), 3);
        assert_eq!(plan.populations(), vec![4, 3, 3]);
        assert_eq!(plan.planned_replay_accesses(), 3 * 2000);
    }

    #[test]
    fn validate_rejects_structural_lies() {
        type Mutation = Box<dyn Fn(&mut SamplingPlan)>;
        let cases: Vec<(&str, Mutation)> = vec![
            ("zero window", Box::new(|p| p.window = 0)),
            ("bad bound", Box::new(|p| p.bound = f64::NAN)),
            ("bound above one", Box::new(|p| p.bound = 1.5)),
            ("window count mismatch", Box::new(|p| p.source_len = 99_999)),
            ("dangling cluster", Box::new(|p| p.assignment[4] = 9)),
            ("rep out of range", Box::new(|p| p.representatives[1] = 64)),
            (
                "rep assigned elsewhere",
                Box::new(|p| p.representatives[1] = 4),
            ),
            ("no reps", Box::new(|p| p.representatives.clear())),
        ];
        for (what, mutate) in cases {
            let mut plan = small_plan();
            mutate(&mut plan);
            assert!(plan.validate().is_err(), "{what} must be rejected");
        }
    }

    #[test]
    fn foreign_magic_and_future_version() {
        let mut bytes = small_plan().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            SamplingPlan::from_bytes(&bytes),
            Err(PlanError::BadMagic { .. })
        ));
        let mut bytes = small_plan().to_bytes();
        bytes[8] = 99;
        assert!(matches!(
            SamplingPlan::from_bytes(&bytes),
            Err(PlanError::UnsupportedVersion {
                found: 99,
                supported: PLAN_VERSION
            })
        ));
    }

    #[test]
    fn errors_display_the_failure() {
        let cases: Vec<(PlanError, &str)> = vec![
            (PlanError::BadMagic { found: [0; 8] }, "magic"),
            (
                PlanError::UnsupportedVersion {
                    found: 9,
                    supported: 1,
                },
                "version 9",
            ),
            (PlanError::Truncated { context: "body" }, "body"),
            (
                PlanError::Checksum {
                    found: 1,
                    computed: 2,
                },
                "mismatch",
            ),
            (PlanError::Malformed { detail: "x".into() }, "malformed"),
        ];
        for (err, needle) in cases {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }
}
