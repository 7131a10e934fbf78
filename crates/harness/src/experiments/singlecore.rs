//! Figures 4–9: the single-thread evaluation.

use super::Context;
use crate::runner::{cell, cells, Cell, SingleResult};
use crate::table::{amean, f3, gmean, pct, TextTable};
use sdbp::config::SdbpConfig;
use sdbp::registry::sampler_spec;

/// Figures 4, 5 and 9: LRU, then the LRU-default comparison policies.
pub fn lru_cells() -> Vec<Cell> {
    cells(&["lru", "tdbp", "cdbp", "dip", "rrip", "sampler"])
}

/// Figures 7 and 8: LRU, then the random-default policies.
pub fn random_cells() -> Vec<Cell> {
    cells(&["lru", "random", "random-cdbp", "random-sampler"])
}

/// Figure 6: LRU, then the ablation ladder in the paper's plot order.
pub fn ablation_cells() -> Vec<Cell> {
    let ladder = [
        ("DBRB alone", SdbpConfig::dbrb_alone()),
        ("DBRB+3 tables", SdbpConfig::dbrb_skewed()),
        ("DBRB+sampler", SdbpConfig::sampler_only()),
        ("DBRB+sampler+3 tables", SdbpConfig::sampler_skewed()),
        ("DBRB+sampler+12-way", SdbpConfig::sampler_12way()),
        ("DBRB+sampler+3 tables+12-way", SdbpConfig::paper()),
    ];
    let mut all = vec![cell("lru")];
    all.extend(
        ladder
            .iter()
            .map(|(label, cfg)| (label.to_string(), sampler_spec(cfg))),
    );
    all
}

/// Normalized-MPKI table over a matrix whose column 0 is the LRU baseline.
fn normalized_mpki_table(matrix: &[Vec<SingleResult>], extra: Option<&[f64]>) -> String {
    let policies: Vec<&str> = matrix[0][1..].iter().map(|r| r.policy.as_str()).collect();
    let mut header = vec!["Benchmark".into()];
    header.extend(policies.iter().map(|p| p.to_string()));
    if extra.is_some() {
        header.push("Optimal".into());
    }
    let mut t = TextTable::new(header);
    let cols = matrix[0].len() - 1 + usize::from(extra.is_some());
    let mut sums = vec![Vec::new(); cols];
    for (b, row) in matrix.iter().enumerate() {
        let base = row[0].misses.max(1) as f64;
        let mut cells = vec![row[0].benchmark.clone()];
        for (i, r) in row[1..].iter().enumerate() {
            let norm = r.misses as f64 / base;
            sums[i].push(norm);
            cells.push(f3(norm));
        }
        if let Some(opt) = extra {
            let norm = opt[b] / base;
            sums[cols - 1].push(norm);
            cells.push(f3(norm));
        }
        t.row(cells);
    }
    let mut mean_cells = vec!["amean".to_owned()];
    for s in &sums {
        mean_cells.push(f3(amean(s)));
    }
    t.row(mean_cells);
    t.render()
}

/// Speedup table (IPC over LRU) over a matrix whose column 0 is LRU.
fn speedup_table(matrix: &[Vec<SingleResult>]) -> String {
    let policies: Vec<&str> = matrix[0][1..].iter().map(|r| r.policy.as_str()).collect();
    let mut header = vec!["Benchmark".into()];
    header.extend(policies.iter().map(|p| p.to_string()));
    let mut t = TextTable::new(header);
    let mut sums = vec![Vec::new(); matrix[0].len() - 1];
    for row in matrix {
        let base = row[0].ipc;
        let mut cells = vec![row[0].benchmark.clone()];
        for (i, r) in row[1..].iter().enumerate() {
            let s = r.ipc / base;
            sums[i].push(s);
            cells.push(f3(s));
        }
        t.row(cells);
    }
    let mut mean_cells = vec!["gmean".to_owned()];
    for s in &sums {
        mean_cells.push(f3(gmean(s)));
    }
    t.row(mean_cells);
    t.render()
}

/// Figure 4: LLC misses normalized to 2 MB LRU, LRU-default policies +
/// optimal.
pub fn fig4(ctx: &Context) -> String {
    let matrix = ctx.matrix(&lru_cells());
    // Optimal misses per benchmark, aligned with the matrix rows.
    let llc = ctx.llc();
    let optimal: Vec<f64> = matrix
        .iter()
        .map(|row| {
            let bench = sdbp_workloads::benchmark(&row[0].benchmark)
                .expect("matrix benchmark must be in the suite");
            let w = ctx.store.record(&bench, 0);
            sdbp_optimal::simulate(&w.llc, llc).misses as f64
        })
        .collect();
    format!(
        "Figure 4: normalized LLC misses (LRU = 1.0), 2MB LLC\n\n{}",
        normalized_mpki_table(&matrix, Some(&optimal))
    )
}

/// Figure 5: speedup over LRU for the LRU-default policies.
pub fn fig5(ctx: &Context) -> String {
    format!(
        "Figure 5: speedup over LRU, 2MB LLC\n\n{}",
        speedup_table(&ctx.matrix(&lru_cells()))
    )
}

/// Figure 6: contribution of sampling, reduced associativity and skewed
/// prediction — gmean speedup of each ablation rung over LRU.
pub fn fig6(ctx: &Context) -> String {
    let matrix = ctx.matrix(&ablation_cells());
    let mut t = TextTable::new(vec!["Configuration".into(), "gmean speedup".into()]);
    let n_policies = matrix[0].len() - 1;
    for i in 0..n_policies {
        let speedups: Vec<f64> = matrix
            .iter()
            .map(|row| row[i + 1].ipc / row[0].ipc)
            .collect();
        t.row(vec![
            matrix[0][i + 1].policy.clone(),
            pct(gmean(&speedups) - 1.0),
        ]);
    }
    format!(
        "Figure 6: ablation — contribution of sampler, associativity and skew\n\n{}",
        t.render()
    )
}

/// Figure 7: normalized misses with a default random-replacement LLC.
pub fn fig7(ctx: &Context) -> String {
    format!(
        "Figure 7: normalized LLC misses with default random replacement (LRU = 1.0)\n\n{}",
        normalized_mpki_table(&ctx.matrix(&random_cells()), None)
    )
}

/// Figure 8: speedup over LRU with a default random-replacement LLC.
pub fn fig8(ctx: &Context) -> String {
    format!(
        "Figure 8: speedup over the LRU baseline, default random replacement\n\n{}",
        speedup_table(&ctx.matrix(&random_cells()))
    )
}

/// Figure 9: coverage and false positive rates of the three predictors
/// (LRU-default DBRB runs).
pub fn fig9(ctx: &Context) -> String {
    let matrix = ctx.matrix(&lru_cells());
    // Columns: [LRU, TDBP, CDBP, DIP, RRIP, Sampler] — predictors are at
    // indices 1 (reftrace), 2 (counting), 5 (sampler).
    let preds = [(1usize, "reftrace"), (2, "counting"), (5, "sampler")];
    let mut header = vec!["Benchmark".into()];
    for (_, name) in preds {
        header.push(format!("{name} cov"));
        header.push(format!("{name} FP"));
    }
    let mut t = TextTable::new(header);
    let mut cov_sums = vec![Vec::new(); preds.len()];
    let mut fp_sums = vec![Vec::new(); preds.len()];
    for row in &matrix {
        let mut cells = vec![row[0].benchmark.clone()];
        for (pi, (col, _)) in preds.iter().enumerate() {
            let s = &row[*col].stats;
            cov_sums[pi].push(s.coverage());
            fp_sums[pi].push(s.false_positive_rate());
            cells.push(pct(s.coverage()));
            cells.push(pct(s.false_positive_rate()));
        }
        t.row(cells);
    }
    let mut mean_cells = vec!["amean".to_owned()];
    for pi in 0..preds.len() {
        mean_cells.push(pct(amean(&cov_sums[pi])));
        mean_cells.push(pct(amean(&fp_sums[pi])));
    }
    t.row(mean_cells);
    format!(
        "Figure 9: predictor coverage and false positive rates \
         (fractions of LLC accesses)\n\n{}",
        t.render()
    )
}
