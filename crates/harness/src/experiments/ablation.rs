//! Design-choice ablation sweeps (DESIGN.md §5), beyond the paper's
//! Figure 6: sampler set count, prediction threshold, partial tag width,
//! learning from own evictions, and bypass on/off.

use super::Context;
use crate::runner::cell;
use crate::table::{amean, f3, TextTable};
use sdbp::config::{SamplerConfig, SdbpConfig, TableConfig};
use sdbp::registry::sampler_spec;

fn sweep(ctx: &Context, variants: &[(&'static str, SdbpConfig)]) -> Vec<(String, f64)> {
    let mut cells = vec![cell("lru")];
    cells.extend(
        variants
            .iter()
            .map(|(label, cfg)| (label.to_string(), sampler_spec(cfg))),
    );
    let matrix = ctx.matrix(&cells);
    (0..variants.len())
        .map(|i| {
            let norms: Vec<f64> = matrix
                .iter()
                .map(|row| row[i + 1].misses as f64 / row[0].misses.max(1) as f64)
                .collect();
            (variants[i].0.to_owned(), amean(&norms))
        })
        .collect()
}

fn with_sampler(sampler: SamplerConfig) -> SdbpConfig {
    SdbpConfig {
        sampler: Some(sampler),
        tables: TableConfig::skewed(),
    }
}

/// Runs all sweeps and renders one table per design choice.
pub fn run(ctx: &Context) -> String {
    let mut out = String::from(
        "Ablation sweeps: mean LLC misses normalized to LRU over the \
         19-benchmark subset (lower is better; paper config = 32 sets, \
         12-way, 15-bit tags, threshold 8, self-learning on, bypass on)\n\n",
    );

    let sections: Vec<(&str, Vec<(&'static str, SdbpConfig)>)> = vec![
        (
            "Sampler set count",
            vec![
                (
                    "8 sets",
                    with_sampler(SamplerConfig {
                        sets: 8,
                        ..Default::default()
                    }),
                ),
                (
                    "16 sets",
                    with_sampler(SamplerConfig {
                        sets: 16,
                        ..Default::default()
                    }),
                ),
                ("32 sets (paper)", SdbpConfig::paper()),
                (
                    "64 sets",
                    with_sampler(SamplerConfig {
                        sets: 64,
                        ..Default::default()
                    }),
                ),
                (
                    "128 sets",
                    with_sampler(SamplerConfig {
                        sets: 128,
                        ..Default::default()
                    }),
                ),
            ],
        ),
        (
            "Prediction threshold",
            vec![
                (
                    "threshold 4",
                    SdbpConfig {
                        tables: TableConfig {
                            threshold: 4,
                            ..TableConfig::skewed()
                        },
                        ..SdbpConfig::paper()
                    },
                ),
                (
                    "threshold 6",
                    SdbpConfig {
                        tables: TableConfig {
                            threshold: 6,
                            ..TableConfig::skewed()
                        },
                        ..SdbpConfig::paper()
                    },
                ),
                ("threshold 8 (paper)", SdbpConfig::paper()),
                (
                    "threshold 9",
                    SdbpConfig {
                        tables: TableConfig {
                            threshold: 9,
                            ..TableConfig::skewed()
                        },
                        ..SdbpConfig::paper()
                    },
                ),
            ],
        ),
        (
            "Partial tag width",
            vec![
                (
                    "8-bit tags",
                    with_sampler(SamplerConfig {
                        tag_bits: 8,
                        ..Default::default()
                    }),
                ),
                (
                    "12-bit tags",
                    with_sampler(SamplerConfig {
                        tag_bits: 12,
                        ..Default::default()
                    }),
                ),
                ("15-bit tags (paper)", SdbpConfig::paper()),
            ],
        ),
        (
            "Learning from own evictions",
            vec![
                ("self-learning on (paper)", SdbpConfig::paper()),
                (
                    "self-learning off",
                    with_sampler(SamplerConfig {
                        dead_block_victims: false,
                        ..Default::default()
                    }),
                ),
            ],
        ),
    ];

    for (title, variants) in sections {
        let results = sweep(ctx, &variants);
        let mut t = TextTable::new(vec!["Variant".into(), "mean normalized misses".into()]);
        for (label, norm) in results {
            t.row(vec![label, f3(norm)]);
        }
        out.push_str(title);
        out.push('\n');
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}
