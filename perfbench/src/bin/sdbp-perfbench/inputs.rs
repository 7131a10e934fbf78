//! Input generation: `.sdbt` trace files written from the seeded synthetic
//! workloads, so the program under test only ever receives files or
//! uploads. Generation is never timed.

use sdbp_traceio::{TraceMeta, TraceWriter};
use std::path::{Path, PathBuf};

/// One generated trace file.
#[derive(Clone, Debug)]
pub struct Input {
    /// Benchmark name, e.g. `429.mcf`.
    pub bench: &'static str,
    /// Container format version.
    pub version: u32,
    /// Instructions recorded in the file.
    pub instructions: u64,
    /// Where the file lives.
    pub path: PathBuf,
    /// File size in bytes.
    pub bytes: u64,
    /// FNV-1a 64 of the whole file, printed so two commits can be seen to
    /// replay identical inputs.
    pub fnv: u64,
}

impl Input {
    /// `bench.vN`, the label results are printed under.
    pub fn label(&self) -> String {
        format!("{}.v{}", self.bench, self.version)
    }
}

/// FNV-1a 64 over `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Writes `instructions` instructions of `bench`'s stream for `seed` to a
/// version-`version` file in `dir` and prints its checksum line.
pub fn generate(
    dir: &Path,
    bench: &'static str,
    seed: u64,
    instructions: u64,
    version: u32,
) -> Result<Input, String> {
    let workload = sdbp_workloads::benchmark(bench).ok_or(format!("unknown benchmark {bench}"))?;
    let source = workload.source(seed);
    let path = dir.join(format!("{bench}.{instructions}.v{version}.sdbt"));
    let meta = TraceMeta::new(bench, workload.stream_seed(seed)).with_version(version);
    let io = |e: sdbp_traceio::TraceIoError| format!("{}: {e}", path.display());
    // A run's directory is its own, so an existing file was written for
    // this seed earlier in the same run.
    if !path.exists() {
        let mut writer = TraceWriter::create(&path, meta).map_err(io)?;
        let mut stream = sdbp_trace::TraceSource::open(&source)?;
        for _ in 0..instructions {
            let instr = stream
                .next()
                .ok_or(format!("{bench} stream ended early"))??;
            writer.write(&instr).map_err(io)?;
        }
        writer.finish().map_err(io)?;
    }
    let image = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let input = Input {
        bench,
        version,
        instructions,
        bytes: image.len() as u64,
        fnv: fnv1a64(&image),
        path,
    };
    println!(
        "input {} seed={seed} instructions={} bytes={} fnv1a64={:016x}",
        input.label(),
        input.instructions,
        input.bytes,
        input.fnv
    );
    Ok(input)
}
