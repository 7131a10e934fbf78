//! Host diagnostics: a fixed probe loop, scheduler wait from schedstat,
//! and the process's peak resident set. They let a noisy verdict be
//! attributed to the host (probe drift, run-queue wait) or to the program.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The probe's median time on the reference host (2-vCPU shared x86-64
/// VM), in ms. Host-normalized metrics read as if the probe had taken
/// this long.
pub const PROBE_NOMINAL_MS: f64 = 2.6;

/// A fixed pointer chase owned by the benchmark: 200K dependent loads
/// over one random cycle through 512 KiB. The work is the same on every
/// commit, so a change in its time is host drift, not a change in the
/// program. It chases through memory rather than looping on registers:
/// the other tenants of a shared host slow memory-bound code like the
/// simulator's by up to 40% for tens of seconds at a time, while a
/// register-only loop moves by 2%.
pub struct Probe {
    next: Vec<u32>,
}

impl std::fmt::Debug for Probe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Probe({} slots)", self.next.len())
    }
}

impl Default for Probe {
    fn default() -> Self {
        const SLOTS: u32 = 1 << 17;
        // Sattolo's shuffle with a fixed LCG: one cycle through every slot.
        let mut next: Vec<u32> = (0..SLOTS).collect();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..SLOTS).rev() {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let j = (x >> 33) % u64::from(i);
            next.swap(i as usize, j as usize);
        }
        Probe { next }
    }
}

impl Probe {
    /// Runs the chase once and returns its time in ms.
    pub fn time_ms(&self) -> f64 {
        let start = Instant::now();
        let mut at = black_box(0u32);
        for _ in 0..200_000 {
            at = self.next.get(at as usize).copied().unwrap_or(0);
        }
        black_box(at);
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// Per-thread `(on-cpu ns, run-queue wait ns)` of this process, from
/// `/proc/self/task/*/schedstat`. Empty where the file is unavailable.
pub fn schedstat() -> BTreeMap<u64, (u64, u64)> {
    let mut out = BTreeMap::new();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for task in tasks.flatten() {
        let Some(tid) = task.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let Ok(text) = std::fs::read_to_string(task.path().join("schedstat")) else {
            continue;
        };
        let mut fields = text.split_whitespace().map(|f| f.parse::<u64>().ok());
        if let (Some(Some(run)), Some(Some(wait))) = (fields.next(), fields.next()) {
            out.insert(tid, (run, wait));
        }
    }
    out
}

/// Share of time this process's threads spent waiting on a run queue
/// between two [`schedstat`] snapshots, in percent of (run + wait).
/// Threads present in only one snapshot are left out.
pub fn runqueue_wait_pct(
    before: &BTreeMap<u64, (u64, u64)>,
    after: &BTreeMap<u64, (u64, u64)>,
) -> f64 {
    let (mut run, mut wait) = (0u64, 0u64);
    for (tid, &(r1, w1)) in after {
        if let Some(&(r0, w0)) = before.get(tid) {
            run += r1.saturating_sub(r0);
            wait += w1.saturating_sub(w0);
        }
    }
    if run + wait == 0 {
        0.0
    } else {
        wait as f64 * 100.0 / (run + wait) as f64
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
