//! The golden miss-count gate: every policy in
//! `tests/golden/replay_miss_counts.tsv` — built purely from its registry
//! spec string — must reproduce the recorded LLC miss count exactly, and
//! every row whose policy consults a dead block predictor must reproduce
//! the paper's §VII-C counters in `tests/golden/predictor_counters.tsv`.
//!
//! The fixture was generated by `examples/golden_gen.rs` *before* the
//! data-plane/policy-plane refactor, so this test is the proof that the
//! metadata-plane port and the registry construction path are
//! bit-identical to the original per-policy implementations. Regenerate
//! the fixture (same example) only for intentional behaviour changes.

use sdbp_suite::cache::recorder::{record, RecordedWorkload};
use sdbp_suite::cache::replay::replay;
use sdbp_suite::cache::{Cache, CacheConfig};
use sdbp_suite::sdbp::registry::standard;
use std::collections::BTreeMap;

const FIXTURE: &str = include_str!("golden/replay_miss_counts.tsv");
const COUNTERS: &str = include_str!("golden/predictor_counters.tsv");

/// A fixture row's key: workload, instructions, sets, ways, spec.
type RowKey = (String, u64, usize, usize, String);

/// `predictions`, `predictions_dead` and `false_positives` per row key.
fn counter_rows() -> BTreeMap<RowKey, [u64; 3]> {
    COUNTERS
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|line| {
            let f: Vec<&str> = line.split('\t').collect();
            assert_eq!(f.len(), 8, "malformed counter line: {line:?}");
            let num = |i: usize| f[i].parse::<u64>().expect("counter field");
            let key = (
                f[0].to_owned(),
                num(1),
                f[2].parse().expect("sets"),
                f[3].parse().expect("ways"),
                f[4].to_owned(),
            );
            (key, [num(5), num(6), num(7)])
        })
        .collect()
}

struct Row {
    workload: String,
    instructions: u64,
    sets: usize,
    ways: usize,
    spec: String,
    misses: u64,
}

fn rows() -> Vec<Row> {
    FIXTURE
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|line| {
            let f: Vec<&str> = line.split('\t').collect();
            assert_eq!(f.len(), 6, "malformed fixture line: {line:?}");
            Row {
                workload: f[0].to_owned(),
                instructions: f[1].parse().expect("instructions"),
                sets: f[2].parse().expect("sets"),
                ways: f[3].parse().expect("ways"),
                spec: f[4].to_owned(),
                misses: f[5].parse().expect("misses"),
            }
        })
        .collect()
}

#[test]
fn every_golden_spec_replays_to_the_recorded_miss_count() {
    let rows = rows();
    assert_eq!(
        rows.len(),
        60,
        "fixture shape changed — regenerate deliberately"
    );
    let mut counters = counter_rows();
    assert_eq!(
        counters.len(),
        39,
        "counter fixture shape changed — regenerate deliberately"
    );

    // One recording per (workload, instructions); replays share it.
    let mut recordings: BTreeMap<(String, u64), RecordedWorkload> = BTreeMap::new();
    let registry = standard();
    let mut failures = Vec::new();
    for row in &rows {
        let key = (row.workload.clone(), row.instructions);
        let w = recordings.entry(key).or_insert_with(|| {
            let bench = sdbp_suite::workloads::benchmark(&row.workload).expect("workload in suite");
            record(bench.name, bench.trace(), row.instructions)
        });
        let llc = CacheConfig::new(row.sets, row.ways);
        let policy = registry
            .build_str(&row.spec, llc, 1)
            .unwrap_or_else(|e| panic!("golden spec {:?} must build: {e}", row.spec));
        let mut cache = Cache::with_policy(llc, policy);
        let stats = replay(&w.llc, &mut cache).stats;
        if stats.misses != row.misses {
            failures.push(format!(
                "{} {}x{} {}: expected {} misses, got {}",
                row.workload, row.sets, row.ways, row.spec, row.misses, stats.misses
            ));
        }
        let key = (
            row.workload.clone(),
            row.instructions,
            row.sets,
            row.ways,
            row.spec.clone(),
        );
        let got = [
            stats.predictions,
            stats.predictions_dead,
            stats.false_positives,
        ];
        match counters.remove(&key) {
            Some(expected) if expected == got => {}
            Some(expected) => failures.push(format!(
                "{} {}x{} {}: expected predictions/dead/false positives {expected:?}, got {got:?}",
                row.workload, row.sets, row.ways, row.spec
            )),
            None if stats.predictions > 0 => failures.push(format!(
                "{} {}x{} {}: predictor counters {got:?} have no golden row",
                row.workload, row.sets, row.ways, row.spec
            )),
            None => {}
        }
    }
    assert!(
        counters.is_empty(),
        "counter rows without a miss-count row: {:?}",
        counters.keys()
    );
    assert!(
        failures.is_empty(),
        "golden drift:\n{}",
        failures.join("\n")
    );
}

/// The gate above only covers policies the fixture names, so a newly
/// registered policy must come with a golden row: every `standard()`
/// entry appears as a bare spec or as `name:params`.
#[test]
fn every_registry_policy_has_a_golden_row() {
    let rows = rows();
    let missing: Vec<&str> = standard()
        .entries()
        .iter()
        .map(|e| e.name)
        .filter(|name| {
            !rows.iter().any(|r| {
                r.spec
                    .strip_prefix(name)
                    .is_some_and(|rest| rest.is_empty() || rest.starts_with(':'))
            })
        })
        .collect();
    assert!(
        missing.is_empty(),
        "registered policies without a golden row: {missing:?} — regenerate \
         tests/golden/replay_miss_counts.tsv with examples/golden_gen.rs"
    );
}

/// Golden rows must survive the archival pipeline unchanged: record the
/// workload to a v1 `.sdbt`, convert it to the columnar v2 layout,
/// batch-decode the converted file through `BufferedTrace`, and the
/// replayed miss counts must equal the fixture bit for bit. This is the
/// acceptance gate for the v2 trace plane (DESIGN.md §14): a converted
/// trace is the *same* workload, not a similar one.
#[test]
fn golden_rows_replay_identically_through_a_v2_converted_trace() {
    use sdbp_suite::cache::recorder::try_record_batches;
    use sdbp_suite::traceio::{convert_path, BufferedTrace, TraceMeta, TraceWriter, FORMAT_V2};

    let rows = rows();
    let registry = standard();
    let dir = std::env::temp_dir();

    // One v1 recording + v2 conversion per (workload, instructions);
    // replays share the batch-decoded workload.
    let mut recordings: BTreeMap<(String, u64), RecordedWorkload> = BTreeMap::new();
    let mut checked = 0usize;
    let mut failures = Vec::new();
    for row in &rows {
        let key = (row.workload.clone(), row.instructions);
        let w = recordings.entry(key).or_insert_with(|| {
            let bench = sdbp_suite::workloads::benchmark(&row.workload).expect("workload in suite");
            let v1 = dir.join(format!(
                "sdbp-golden-v2-{}-{}-{}.v1.sdbt",
                std::process::id(),
                row.workload,
                row.instructions
            ));
            let v2 = v1.with_extension("v2.sdbt");
            let meta = TraceMeta::new(bench.name, bench.stream_seed(0));
            let mut writer = TraceWriter::create(&v1, meta).expect("write v1 golden trace");
            writer
                .write_all(bench.trace().take(row.instructions as usize))
                .expect("archive golden workload");
            writer.finish().expect("finish v1 golden trace");
            convert_path(&v1, &v2, FORMAT_V2).expect("convert golden trace to v2");
            let buffered = BufferedTrace::load(&v2).expect("load v2 golden trace");
            let mut batches = buffered.batches();
            let recorded = try_record_batches(bench.name, &mut batches, row.instructions, 0)
                .expect("record from v2 batches");
            #[expect(
                clippy::unused_result_ok,
                reason = "best-effort temp cleanup; a leftover file is harmless"
            )]
            std::fs::remove_file(&v1).ok();
            #[expect(
                clippy::unused_result_ok,
                reason = "best-effort temp cleanup; a leftover file is harmless"
            )]
            std::fs::remove_file(&v2).ok();
            recorded
        });
        let llc = CacheConfig::new(row.sets, row.ways);
        let policy = registry
            .build_str(&row.spec, llc, 1)
            .unwrap_or_else(|e| panic!("golden spec {:?} must build: {e}", row.spec));
        let misses = replay(&w.llc, &mut Cache::with_policy(llc, policy))
            .stats
            .misses;
        checked += 1;
        if misses != row.misses {
            failures.push(format!(
                "{} {}x{} {}: expected {} misses via v2 trace, got {misses}",
                row.workload, row.sets, row.ways, row.spec, row.misses
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "v2 trace drift:\n{}",
        failures.join("\n")
    );
    assert!(
        checked >= 10,
        "only {checked} golden rows exercised the v2 path"
    );
}
