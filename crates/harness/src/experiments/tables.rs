//! Tables I–IV.

use super::Context;
use crate::runner::{cell, run_matrix, run_min};
use crate::table::{f3, TextTable};
use sdbp_cache::CacheConfig;
use sdbp_power::power::PowerModel;
use sdbp_power::storage::{predictor_storage, PredictorKind};
use sdbp_workloads::suite;

/// Table I: storage overhead for the three predictors.
pub fn table1() -> String {
    let mut t = TextTable::new(vec![
        "Predictor".into(),
        "Predictor KB".into(),
        "Metadata KB".into(),
        "Total KB".into(),
        "% of 2MB LLC".into(),
    ]);
    for kind in PredictorKind::ALL {
        let r = predictor_storage(kind);
        t.row(vec![
            kind.name().into(),
            format!("{:.2}", r.predictor_bits as f64 / 8192.0),
            format!("{:.2}", r.metadata_bits as f64 / 8192.0),
            format!("{:.2}", r.total_kb()),
            format!("{:.1}%", r.percent_of_llc()),
        ]);
    }
    format!(
        "Table I: storage overhead of dead block predictors\n\n{}",
        t.render()
    )
}

/// Table II: leakage and dynamic power of the predictor components.
pub fn table2() -> String {
    let model = PowerModel::calibrated();
    let llc = model.llc_power();
    let mut t = TextTable::new(vec![
        "Predictor".into(),
        "Structure leak W".into(),
        "Structure dyn W".into(),
        "Metadata leak W".into(),
        "Metadata dyn W".into(),
        "Total leak W".into(),
        "Total dyn W".into(),
        "% LLC leak".into(),
        "% LLC dyn".into(),
    ]);
    for kind in PredictorKind::ALL {
        let r = model.report(kind);
        let (mut sl, mut sd, mut ml, mut md) = (0.0, 0.0, 0.0, 0.0);
        for c in &r.components {
            if c.name == "cache metadata" {
                ml += c.leakage_w;
                md += c.dynamic_w;
            } else {
                sl += c.leakage_w;
                sd += c.dynamic_w;
            }
        }
        t.row(vec![
            kind.name().into(),
            format!("{:.4}", sl),
            format!("{:.4}", sd),
            format!("{:.4}", ml),
            format!("{:.4}", md),
            format!("{:.4}", r.leakage_w()),
            format!("{:.4}", r.dynamic_w()),
            format!("{:.1}%", r.leakage_w() / llc.leakage_w * 100.0),
            format!("{:.1}%", r.dynamic_w() / llc.dynamic_w * 100.0),
        ]);
    }
    format!(
        "Table II: predictor power (analytic CACTI substitute; LLC anchor = \
         {:.3} W leakage / {:.2} W dynamic)\n\n{}",
        llc.leakage_w,
        llc.dynamic_w,
        t.render()
    )
}

/// Table III: per-benchmark MPKI (LRU), MPKI (optimal MIN+bypass) and IPC
/// (LRU) on a 2 MB LLC, with the memory-intensive subset marked. The LRU
/// and MIN results land in the store's memos, so the figures that show
/// them again replay neither.
pub fn table3(ctx: &Context) -> String {
    let llc = ctx.llc();
    let benchmarks = suite();
    let lru = run_matrix(&ctx.engine, &ctx.store, &benchmarks, &[cell("lru")], llc);
    let min = run_min(&ctx.engine, &ctx.store, &benchmarks, llc);
    let mut t = TextTable::new(vec![
        "Benchmark".into(),
        "MPKI (LRU)".into(),
        "MPKI (MIN)".into(),
        "IPC (LRU)".into(),
        "subset".into(),
    ]);
    for ((bench, row), opt) in benchmarks.iter().zip(&lru).zip(&min) {
        let lru = &row[0];
        let instructions = ctx.store.record(bench, 0).instructions();
        t.row(vec![
            bench.name.to_owned(),
            f3(lru.mpki),
            f3(opt.mpki(instructions)),
            f3(lru.ipc),
            if bench.in_subset {
                "*".into()
            } else {
                "".into()
            },
        ]);
    }
    format!(
        "Table III: baseline characterization, 2MB LLC \
         (subset criterion: MIN reduces misses by >= 1%)\n\n{}",
        t.render()
    )
}

/// Table IV: mix definitions with cache-sensitivity curves (LRU MPKI of
/// the shared stream at LLC sizes 128 KB .. 32 MB).
pub fn table4(ctx: &Context) -> String {
    let sizes_kb: Vec<u64> = vec![128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768];
    let mut header = vec!["Mix".into(), "Members".into()];
    header.extend(sizes_kb.iter().map(|kb| {
        if *kb >= 1024 {
            format!("{}MB", kb / 1024)
        } else {
            format!("{kb}KB")
        }
    }));
    let mut t = TextTable::new(header);
    let rows = ctx.mixes("table4", sizes_kb.len(), |mix, workloads, merged| {
        let instructions: u64 = workloads.iter().map(|w| w.instructions()).sum();
        let mut cells = vec![mix.name.to_owned(), mix.members.join(" ")];
        for &kb in &sizes_kb {
            let llc = CacheConfig::llc_with_capacity(kb << 10);
            let lru = ctx.store.replay_exact(merged, workloads.len(), "lru", llc);
            cells.push(f3(lru.stats.mpki(instructions)));
        }
        cells
    });
    for cells in rows {
        t.row(cells);
    }
    format!(
        "Table IV: quad-core mixes with cache sensitivity curves \
         (shared-stream LRU MPKI vs LLC capacity)\n\n{}",
        t.render()
    )
}
