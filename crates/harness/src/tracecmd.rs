//! The `sdbp-repro trace` subcommand family: archive workloads as
//! `.sdbt` files and replay them bit-exactly.
//!
//! ```text
//! sdbp-repro trace record --workload 456.hmmer --out hmmer.sdbt
//! sdbp-repro trace replay hmmer.sdbt
//! sdbp-repro trace replay --workload 456.hmmer   # direct synthetic run
//! sdbp-repro trace import --in foreign.txt --out foreign.sdbt
//! sdbp-repro trace convert hmmer.sdbt --out hmmer.v2.sdbt --to 2
//! sdbp-repro trace info hmmer.sdbt
//! ```
//!
//! `replay` prints one `{name} {policy} misses= mpki= ipc=` line per
//! policy (LRU and the paper's Sampler by default). Replaying a file
//! recorded from a workload prints output byte-identical to replaying
//! that workload directly — the acceptance property CI diffs on.
//!
//! `--policy SPEC` (repeatable) replays registry policies instead of the
//! default pair: `sdbp-repro trace replay t.sdbt --policy rrip --policy
//! sampler:assoc=16`. `sdbp-repro list-policies` prints the registry.
//!
//! `info --set-histogram SETS` appends an accesses-per-set decile
//! breakdown: how unevenly the stream spreads over the cache's sets.
//!
//! `convert` rewrites an archive between the compact varint v1 codec and
//! the fixed-width columnar v2 codec (DESIGN.md §14) losslessly in either
//! direction; `info` reports both codecs' real byte footprints for the
//! file's stream so the space cost of the fast format is never a guess.

use crate::flags::Flags;
use crate::runner::{cells, run_policy, Cell};
use crate::table::result_line;
use sdbp::registry::{standard, PolicySpec};
use sdbp_cache::recorder::{record_for_core, try_record_batches, RecordedWorkload};
use sdbp_cache::{Cache, CacheConfig};
use sdbp_sample::{build_plan, calibrate_bound, PlanConfig, SamplingPlan};
use sdbp_traceio::{
    convert_path, import_text, BufferedTrace, ChunkStat, TraceMeta, TraceWriter, WriteSummary,
    FORMAT_V1, FORMAT_V2,
};
use sdbp_workloads::benchmark;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A trace subcommand: its valued flags (it has no switches) and its body.
type Subcommand = (&'static [&'static str], fn(&Flags) -> Result<(), String>);

/// Runs `sdbp-repro trace <args>`; returns the process exit code: 2 for
/// a flag the subcommand does not take, 1 for any other error.
pub fn run(args: &[String]) -> i32 {
    let (known, body): Subcommand = match args.first().map(String::as_str) {
        Some("record") => (&["workload", "out", "instructions", "core"], cmd_record),
        Some("replay") => (
            &["workload", "instructions", "core", "policy", "sampled"],
            cmd_replay,
        ),
        Some("sample") => (
            &[
                "out", "window", "clusters", "warmup", "seed", "jobs", "core",
            ],
            cmd_sample,
        ),
        Some("import") => (&["in", "out", "name"], cmd_import),
        Some("convert") => (&["out", "to"], cmd_convert),
        Some("info") => (&["set-histogram"], cmd_info),
        Some("help") | Some("--help") | None => {
            eprintln!("{USAGE}");
            return if args.is_empty() { 2 } else { 0 };
        }
        Some(other) => {
            eprintln!("error: unknown trace subcommand '{other}'\n{USAGE}");
            return 1;
        }
    };
    let flags = match Flags::parse(&args[1..], known, &[], USAGE) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    match body(&flags) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

const USAGE: &str = "usage:
  sdbp-repro trace record --workload NAME --out FILE.sdbt [--instructions N] [--core C]
  sdbp-repro trace replay FILE.sdbt [--core C] [--policy SPEC]... [--sampled PLAN.sdbs]
  sdbp-repro trace replay --workload NAME [--instructions N] [--core C] [--policy SPEC]...
  sdbp-repro trace sample FILE.sdbt --out PLAN.sdbs [--window N] [--clusters K]
                          [--warmup W] [--seed S] [--jobs J] [--core C]
  sdbp-repro trace sample PLAN.sdbs             (inspect an existing plan)
  sdbp-repro trace import --in FILE.txt --out FILE.sdbt [--name NAME]
  sdbp-repro trace convert FILE.sdbt --out FILE.sdbt [--to 1|2]
  sdbp-repro trace info FILE.sdbt [--set-histogram SETS]

--policy takes a registry spec like 'lru', 'rrip', or
'sampler:assoc=16,tables=1'; see `sdbp-repro list-policies`. Without it,
replay reports the default LRU + Sampler pair. --sampled replays only the
plan's representative windows and extrapolates (estimate + error bound).
convert rewrites an archive
between codec versions losslessly (--to defaults to 2, the columnar
fast-decode layout; 1 is the compact archival layout).";

fn core_id(flags: &Flags) -> Result<u8, String> {
    Ok(flags.number("core")?.unwrap_or(0))
}

fn cmd_record(flags: &Flags) -> Result<(), String> {
    let name = flags
        .get("workload")
        .ok_or("record needs --workload NAME")?;
    let out = PathBuf::from(flags.get("out").ok_or("record needs --out FILE.sdbt")?);
    let n = flags.instructions()?;
    let core = core_id(flags)?;
    let bench = benchmark(name).ok_or_else(|| format!("unknown workload '{name}'"))?;

    #[expect(
        clippy::disallowed_methods,
        reason = "CLI progress and throughput reporting for trace record/replay; stderr only"
    )]
    let started = Instant::now();
    let meta = TraceMeta::new(bench.name, bench.stream_seed(u64::from(core)));
    let mut writer =
        TraceWriter::create(&out, meta).map_err(|e| format!("{}: {e}", out.display()))?;
    writer
        .write_all(bench.trace_seeded(u64::from(core)).take(n as usize))
        .map_err(|e| format!("{}: {e}", out.display()))?;
    let summary = writer
        .finish()
        .map_err(|e| format!("{}: {e}", out.display()))?;
    report_write(&out, &summary, started.elapsed().as_secs_f64());
    Ok(())
}

fn report_write(out: &Path, summary: &WriteSummary, secs: f64) {
    eprintln!(
        "[recorded {} instructions to {} — {} chunks, {} bytes, {:.2} bytes/access, \
         {:.0} accesses/s]",
        summary.instructions,
        out.display(),
        summary.chunks,
        summary.bytes,
        summary.bytes_per_access(),
        if secs > 0.0 {
            summary.instructions as f64 / secs
        } else {
            0.0
        },
    );
}

fn cmd_replay(flags: &Flags) -> Result<(), String> {
    let core = core_id(flags)?;
    let workload = match (flags.get("workload"), flags.positional.as_slice()) {
        (Some(name), []) => {
            let bench = benchmark(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
            let n = flags.instructions()?;
            record_for_core(bench.name, bench.trace_seeded(u64::from(core)), n, core)
        }
        (None, [path]) => workload_from_file(Path::new(path), core)?,
        (Some(_), [_, ..]) => return Err("replay takes a file or --workload, not both".into()),
        _ => {
            return Err(format!(
                "replay needs a FILE.sdbt or --workload NAME\n{USAGE}"
            ))
        }
    };
    let policies = match flags.get_all("policy").as_slice() {
        [] => default_policies(),
        raw => {
            let mut policies = Vec::with_capacity(raw.len());
            for raw in raw {
                let spec: PolicySpec = raw.parse().map_err(|e: sdbp::SpecError| e.to_string())?;
                policies.push((spec.to_string(), spec));
            }
            policies
        }
    };
    let plan = flags
        .get("sampled")
        .map(|path| SamplingPlan::load(Path::new(path)).map_err(|e| format!("{path}: {e}")))
        .transpose()?;
    let summary = replay_table(&workload, CacheConfig::llc_2mb(), &policies, plan.as_ref())?;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    write!(out, "{summary}").map_err(|e| e.to_string())
}

/// Streams an archived trace into a recorded workload, using the
/// archive's own record count as the instruction budget.
///
/// # Errors
///
/// A missing, corrupt or truncated archive, named by its path.
pub fn workload_from_file(path: &Path, core: u8) -> Result<RecordedWorkload, String> {
    let at = |e: &dyn std::fmt::Display| format!("{}: {e}", path.display());
    let trace = BufferedTrace::load(path).map_err(|e| at(&e))?;
    let meta = trace.meta();
    try_record_batches(&meta.name, &mut trace.batches(), meta.count, core).map_err(|e| at(&e))
}

/// The policies `trace replay` reports without `--policy`: LRU and the
/// paper's Sampler, each paired with the column label it prints under.
pub fn default_policies() -> Vec<Cell> {
    cells(&["lru", "sampler"])
}

/// The replay result table: one `{name} {policy} misses= mpki= ipc=`
/// line per `(label, spec)` in `policies`, with `label` as the policy
/// column. With a `plan` the replay is sampled: misses carry the
/// extrapolated estimate and the line adds the plan's stated error
/// bound and the replay-work reduction, so a sampled line can never be
/// mistaken for an exact one.
///
/// Byte-identical between a direct synthetic run and a replay of its
/// recording — the property the integration tests and CI assert.
///
/// # Errors
///
/// An unknown or invalid spec, or a plan that does not fit the stream.
pub fn replay_table(
    workload: &RecordedWorkload,
    llc: CacheConfig,
    policies: &[Cell],
    plan: Option<&SamplingPlan>,
) -> Result<String, String> {
    let mut out = String::new();
    for cell in policies {
        let r = run_policy(workload, cell, llc, plan).map_err(|e| e.to_string())?;
        out.push_str(&result_line(
            &workload.name,
            &r.policy,
            r.misses,
            r.mpki,
            r.ipc,
        ));
        if let Some(sampled) = r.sampled {
            out.push_str(&format!(
                " sampled bound={:.4} reduction={:.1}x",
                sampled.bound,
                sampled.work_reduction()
            ));
        }
        out.push('\n');
    }
    Ok(out)
}

fn cmd_sample(flags: &Flags) -> Result<(), String> {
    let [path] = flags.positional.as_slice() else {
        return Err(format!(
            "sample needs exactly one FILE.sdbt or PLAN.sdbs\n{USAGE}"
        ));
    };
    let path = Path::new(path);
    match flags.get("out") {
        Some(out) => cmd_sample_build(path, Path::new(out), flags),
        None => cmd_sample_inspect(path),
    }
}

/// `trace sample FILE.sdbt --out PLAN.sdbs`: fingerprint, cluster, and
/// persist a sampling plan.
fn cmd_sample_build(trace: &Path, out: &Path, flags: &Flags) -> Result<(), String> {
    let core = core_id(flags)?;
    let d = PlanConfig::default();
    let cfg = PlanConfig {
        window: flags.number("window")?.unwrap_or(d.window),
        k: flags.number("clusters")?.unwrap_or(d.k),
        warmup_windows: flags.number("warmup")?.unwrap_or(d.warmup_windows),
        seed: flags.number("seed")?.unwrap_or(d.seed),
        jobs: flags.number("jobs")?.unwrap_or(d.jobs),
        ..d
    };
    if cfg.window == 0 {
        return Err("--window must be positive".into());
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "CLI progress and throughput reporting for trace record/replay; stderr only"
    )]
    let started = Instant::now();
    let workload = workload_from_file(trace, core)?;
    let llc = CacheConfig::llc_2mb();
    let mut plan = build_plan(&workload, llc, &cfg);
    // Calibrate the stated bound against learning references — the
    // paper-config SDBP policy and the trace-based predictor: learning
    // references expose cross-policy transfer error (predictor training
    // dynamics) that the builder's baseline self-validation cannot see,
    // and the two families train differently enough that either alone
    // can understate the other's error. Costs one extra exact replay per
    // reference, paid once per plan.
    let mut refs: Vec<Box<dyn FnMut() -> Cache>> = cells(&["sampler", "tdbp"])
        .into_iter()
        .map(|(_, spec)| {
            Box::new(move || {
                let policy = standard().build(&spec, llc, 1);
                Cache::with_policy(llc, policy.expect("registered policy"))
            }) as Box<dyn FnMut() -> Cache>
        })
        .collect();
    calibrate_bound(&workload.llc, &mut plan, &mut refs, cfg.safety, cfg.floor)
        .map_err(|e| format!("calibrating {}: {e}", out.display()))?;
    plan.save(out)
        .map_err(|e| format!("{}: {e}", out.display()))?;
    eprintln!(
        "[sampled {} into {} windows -> {} clusters, calibrated bound {:.4}, \
         planned reduction {:.1}x, {:.1}s -> {}]",
        plan.source,
        plan.num_windows(),
        plan.clusters(),
        plan.bound,
        plan.source_len as f64 / plan.planned_replay_accesses().max(1) as f64,
        started.elapsed().as_secs_f64(),
        out.display()
    );
    Ok(())
}

/// `trace sample PLAN.sdbs`: validate and describe an existing plan.
fn cmd_sample_inspect(path: &Path) -> Result<(), String> {
    let bytes = std::fs::metadata(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .len();
    let plan = SamplingPlan::load(path).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("file:            {}", path.display());
    println!(
        "format:          sdbs v{} ({bytes} bytes)",
        sdbp_sample::PLAN_VERSION
    );
    println!(
        "source:          {} ({} accesses)",
        plan.source, plan.source_len
    );
    println!("window:          {} accesses", plan.window);
    println!("warmup:          {} window(s)", plan.warmup_windows);
    println!("seed:            {:#018x}", plan.seed);
    println!("windows:         {}", plan.num_windows());
    println!(
        "clusters:        {} (k={} requested)",
        plan.clusters(),
        plan.k
    );
    println!("error bound:     {:.4}", plan.bound);
    println!(
        "planned work:    {} accesses ({:.1}x reduction)",
        plan.planned_replay_accesses(),
        plan.source_len as f64 / plan.planned_replay_accesses().max(1) as f64
    );
    let populations = plan.populations();
    for (c, (&rep, pop)) in plan.representatives.iter().zip(&populations).enumerate() {
        println!(
            "  cluster {c:>3}: {pop:>6} window(s), representative window {rep} \
             (accesses {}..{})",
            rep * u64::from(plan.window),
            ((rep + 1) * u64::from(plan.window)).min(plan.source_len)
        );
    }
    println!("integrity:       ok (checksum and structure validated)");
    Ok(())
}

fn cmd_import(flags: &Flags) -> Result<(), String> {
    let input = PathBuf::from(flags.get("in").ok_or("import needs --in FILE.txt")?);
    let out = PathBuf::from(flags.get("out").ok_or("import needs --out FILE.sdbt")?);
    let name = match flags.get("name") {
        Some(n) => n.to_owned(),
        None => input
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "imported".to_owned()),
    };

    #[expect(
        clippy::disallowed_methods,
        reason = "CLI progress and throughput reporting for trace record/replay; stderr only"
    )]
    let started = Instant::now();
    let reader = std::fs::File::open(&input)
        .map(std::io::BufReader::new)
        .map_err(|e| format!("{}: {e}", input.display()))?;
    // Seed 0 marks the stream as externally captured, not generated.
    let writer = TraceWriter::create(&out, TraceMeta::new(&name, 0))
        .map_err(|e| format!("{}: {e}", out.display()))?;
    import_text(reader, writer)
        .map_err(|e| format!("{}: {e}", input.display()))
        .map(|summary| report_write(&out, &summary, started.elapsed().as_secs_f64()))
}

fn cmd_convert(flags: &Flags) -> Result<(), String> {
    let [src] = flags.positional.as_slice() else {
        return Err(format!("convert needs exactly one FILE.sdbt\n{USAGE}"));
    };
    let out = PathBuf::from(flags.get("out").ok_or("convert needs --out FILE.sdbt")?);
    let to = flags.number("to")?.unwrap_or(FORMAT_V2);
    #[expect(
        clippy::disallowed_methods,
        reason = "CLI progress and throughput reporting for trace record/replay; stderr only"
    )]
    let started = Instant::now();
    let summary = convert_path(Path::new(src), &out, to).map_err(|e| format!("{src}: {e}"))?;
    let secs = started.elapsed().as_secs_f64();
    eprintln!(
        "[converted {src} (v{}) -> {} (v{}) — {} records, {} bytes, \
         {:.2} bytes/access, {:.0} accesses/s]",
        summary.from_version,
        out.display(),
        summary.to_version,
        summary.write.instructions,
        summary.write.bytes,
        summary.write.bytes_per_access(),
        if secs > 0.0 {
            summary.write.instructions as f64 / secs
        } else {
            0.0
        },
    );
    Ok(())
}

/// A byte-counting `Write + Seek` sink: measures what an encode would
/// produce without buffering it, so `info` can report both codecs' real
/// footprints for a stream without a second file or a large allocation.
#[derive(Default)]
struct CountBytes {
    pos: u64,
    len: u64,
}

impl std::io::Write for CountBytes {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.pos += buf.len() as u64;
        self.len = self.len.max(self.pos);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl std::io::Seek for CountBytes {
    fn seek(&mut self, pos: std::io::SeekFrom) -> std::io::Result<u64> {
        use std::io::SeekFrom;
        let target = match pos {
            SeekFrom::Start(n) => Some(n),
            SeekFrom::End(off) => self.len.checked_add_signed(off),
            SeekFrom::Current(off) => self.pos.checked_add_signed(off),
        };
        match target {
            Some(n) => {
                self.pos = n;
                Ok(n)
            }
            None => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "seek before byte 0",
            )),
        }
    }
}

fn cmd_info(flags: &Flags) -> Result<(), String> {
    let [path] = flags.positional.as_slice() else {
        return Err(format!("info needs exactly one FILE.sdbt\n{USAGE}"));
    };
    let hist_sets = match flags.number::<u64>("set-histogram")? {
        Some(s) if s >= 16 && usize::try_from(s).is_ok_and(usize::is_power_of_two) => {
            Some(s as usize)
        }
        Some(s) => {
            return Err(format!(
                "--set-histogram needs a power-of-two set count >= 16, got {s}"
            ))
        }
        None => None,
    };
    let path = Path::new(path);
    let io = |e: sdbp_traceio::TraceIoError| format!("{}: {e}", path.display());
    // Loading validates every checksum and the record count.
    let trace = BufferedTrace::load(path).map_err(io)?;
    let meta = trace.meta();
    let bytes = trace.byte_len();
    // Tee each record through both codecs into byte-counting sinks, so
    // the cross-version size report reflects real encodes of this exact
    // stream, not a nominal formula.
    let mut v1_count = TraceWriter::new(
        CountBytes::default(),
        TraceMeta::new(&meta.name, meta.seed).with_version(FORMAT_V1),
    )
    .map_err(io)?;
    let mut v2_count = TraceWriter::new(
        CountBytes::default(),
        TraceMeta::new(&meta.name, meta.seed).with_version(FORMAT_V2),
    )
    .map_err(io)?;
    let mut records: u64 = 0;
    let mut mem: u64 = 0;
    let mut writes: u64 = 0;
    let mut set_counts = hist_sets.map(|s| vec![0u64; s]);
    let mut batches = trace.batches();
    while let Some(batch) = batches.try_next().map_err(io)? {
        for instr in batch.iter() {
            v1_count.write(&instr).map_err(io)?;
            v2_count.write(&instr).map_err(io)?;
            records += 1;
            if let Some(m) = instr.mem {
                mem += 1;
                if m.kind == sdbp_trace::AccessKind::Write {
                    writes += 1;
                }
                if let Some(counts) = set_counts.as_mut() {
                    let sets = counts.len();
                    counts[m.addr.block().set_index(sets)] += 1;
                }
            }
        }
    }
    println!("file:         {}", path.display());
    println!("format:       sdbt v{}", meta.version);
    println!("workload:     {}", meta.name);
    println!("seed:         {:#018x}", meta.seed);
    println!("instructions: {records}");
    println!("memory refs:  {mem} ({writes} writes)");
    println!("chunks:       {}", trace.chunk_count());
    println!(
        "bytes:        {bytes} ({:.2}/access)",
        bytes as f64 / records.max(1) as f64
    );
    let stats = trace.chunk_stats();
    let encoded: u64 = stats.iter().map(|s| u64::from(s.payload_bytes)).sum();
    let nominal: u64 = stats
        .iter()
        .map(|s| u64::from(s.records) * ChunkStat::NOMINAL_RECORD_BYTES)
        .sum();
    println!(
        "encoded:      {encoded} payload bytes, {:.3}x vs {}-byte fixed-width records",
        encoded as f64 / nominal.max(1) as f64,
        ChunkStat::NOMINAL_RECORD_BYTES
    );
    // The columnar layout's per-column byte footprint is exact: 8 bytes
    // per pc, 8 per address, 1 per flags byte, plus a 24-byte checksum
    // preamble per chunk (DESIGN.md §14).
    let chunks = trace.chunk_count() as u64;
    println!(
        "columns (v2): pcs {} B, addrs {} B, flags {records} B, checksums {} B",
        records * 8,
        records * 8,
        chunks * 24
    );
    let v1_bytes = v1_count.finish().map_err(io)?.bytes;
    let v2_bytes = v2_count.finish().map_err(io)?.bytes;
    println!(
        "v2 vs v1:     {v2_bytes} vs {v1_bytes} bytes ({:.3}x) for this stream",
        v2_bytes as f64 / v1_bytes.max(1) as f64
    );
    for (index, stat) in stats.iter().enumerate() {
        println!(
            "  chunk {index:>4}: {:>8} records {:>9} bytes ({:.2}/record, ratio {:.3})",
            stat.records,
            stat.payload_bytes,
            stat.bytes_per_record(),
            stat.compression_ratio()
        );
    }
    if let Some(mut counts) = set_counts {
        // Accesses per set decile, hottest sets first: a skew fingerprint
        // of how unevenly the stream loads the cache's sets.
        let sets = counts.len();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = counts.iter().sum();
        let max = counts.first().copied().unwrap_or(0);
        println!(
            "set histogram: {sets} sets, {total} block accesses, hottest set {max} \
             ({:.2}x the mean)",
            max as f64 * sets as f64 / total.max(1) as f64
        );
        for d in 0..10 {
            let start = d * sets / 10;
            let end = (d + 1) * sets / 10;
            let sum: u64 = counts[start..end].iter().sum();
            println!(
                "  decile {:>2}: {:>10} accesses ({:>5.1}%)",
                d + 1,
                sum,
                sum as f64 * 100.0 / total.max(1) as f64
            );
        }
    }
    println!("integrity:    ok (all checksums validated)");
    Ok(())
}
