//! Container-format independence of the sampling plane: a plan built
//! from a **v2** (columnar, batch-decoded) trace must be byte-identical
//! to one built from the same stream's **v1** (varint) encoding *and*
//! to one built from the never-serialized in-memory stream. The plan is
//! a pure function of the decoded access stream — the `.sdbt` container
//! version can never leak into fingerprints, clustering, or the error
//! bound.

use sdbp_cache::recorder::{record, try_record_batches, RecordedWorkload};
use sdbp_cache::CacheConfig;
use sdbp_sample::{build_plan, PlanConfig};
use sdbp_trace::kernel::KernelSpec;
use sdbp_trace::{Instr, TraceBuilder};
use sdbp_traceio::{convert_path, BufferedTrace, TraceMeta, TraceWriter, FORMAT_V2};
use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};

const INSTRUCTIONS: usize = 200_000;

fn stream() -> impl Iterator<Item = Instr> {
    TraceBuilder::new(7)
        .kernel(KernelSpec::generational(1 << 18, 3, 64))
        .build()
}

fn temp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sdbp-plan-v2-{}-{tag}.sdbt", std::process::id()))
}

/// Batch-records a `.sdbt` file through the buffered zero-copy path —
/// the same decode plane `sdbp-repro trace plan` uses for file traces.
fn record_file(path: &Path) -> RecordedWorkload {
    let trace = BufferedTrace::load(path).unwrap();
    let meta = trace.meta().clone();
    let mut batches = trace.batches();
    try_record_batches(&meta.name, &mut batches, meta.count, 0).unwrap()
}

#[test]
fn plans_are_identical_across_container_formats() {
    // Ground truth: record the in-memory stream directly.
    let direct = record("fmt", stream().take(INSTRUCTIONS), INSTRUCTIONS as u64);

    // Serialize the same stream as v1, convert losslessly to v2.
    let v1_path = temp("v1");
    let v2_path = temp("v2");
    let file = BufWriter::new(File::create(&v1_path).unwrap());
    let mut writer = TraceWriter::new(file, TraceMeta::new("fmt", 7)).unwrap();
    writer.write_all(stream().take(INSTRUCTIONS)).unwrap();
    writer.finish().unwrap();
    convert_path(&v1_path, &v2_path, FORMAT_V2).unwrap();

    let from_v1 = record_file(&v1_path);
    let from_v2 = record_file(&v2_path);
    #[expect(
        clippy::let_underscore_must_use,
        reason = "best-effort temp cleanup; a leftover file is harmless"
    )]
    let _ = std::fs::remove_file(&v1_path);
    #[expect(
        clippy::let_underscore_must_use,
        reason = "best-effort temp cleanup; a leftover file is harmless"
    )]
    let _ = std::fs::remove_file(&v2_path);

    // The recorded LLC streams must already agree access for access...
    assert_eq!(
        direct.llc, from_v1.llc,
        "v1 decode changed the recorded stream"
    );
    assert_eq!(
        direct.llc, from_v2.llc,
        "v2 batch decode changed the recorded stream"
    );

    // ...and so must everything the sampling plane derives from them.
    let llc = CacheConfig::llc_2mb();
    let cfg = PlanConfig::default()
        .with_window(4096)
        .with_k(6)
        .with_seed(99);
    let plan_direct = build_plan(&direct, llc, &cfg);
    let plan_v1 = build_plan(&from_v1, llc, &cfg);
    let plan_v2 = build_plan(&from_v2, llc, &cfg);
    assert_eq!(
        plan_v1.to_bytes(),
        plan_v2.to_bytes(),
        "sampling plan must not depend on the container format"
    );
    assert_eq!(
        plan_direct.to_bytes(),
        plan_v2.to_bytes(),
        "sampling plan from a v2 file must match the in-memory stream's"
    );
}
