//! Figure 1: cache efficiency greyscale for `456.hmmer` — 1 MB LRU versus
//! the sampler-driven dead block replacement and bypass cache.

use super::Context;
use sdbp::registry::{standard, PolicySpec};
use sdbp_cache::replay::replay;
use sdbp_cache::{Cache, CacheConfig};
use sdbp_engine::Job;

/// Characters from dead (dark in the paper) to live.
const SHADES: [char; 5] = ['#', '+', '-', '.', ' '];

fn shade(efficiency: f64) -> char {
    let idx = (efficiency * SHADES.len() as f64).min(SHADES.len() as f64 - 1.0) as usize;
    SHADES[idx]
}

/// Renders a downsampled sets × ways efficiency map (one row per group of
/// sets, one column per way).
fn render_map(cache: &Cache) -> String {
    let eff = cache.efficiency().expect("efficiency tracking enabled");
    let CacheConfig { sets, ways } = cache.config();
    let rows = 32usize;
    let group = sets / rows;
    let mut out = String::new();
    for r in 0..rows {
        for way in 0..ways {
            let mean: f64 = (r * group..(r + 1) * group)
                .map(|set| eff.frame_efficiency(set, way))
                .sum::<f64>()
                / group as f64;
            out.push(shade(mean));
        }
        out.push('\n');
    }
    out
}

/// Mean dead-time fraction of a 2 MB LRU LLC over the memory-intensive
/// subset (the paper's §I headline: blocks are dead 86.2% of the time).
fn suite_dead_fraction(ctx: &Context) -> f64 {
    let llc = CacheConfig::llc_2mb();
    let jobs: Vec<Job<'_, f64>> = sdbp_workloads::subset()
        .into_iter()
        .map(|bench| {
            let store = ctx.store.clone();
            Job::new(format!("fig1/dead/{}", bench.name), move || {
                let w = store.record(&bench, 0);
                let mut cache = Cache::new(llc);
                cache.track_efficiency();
                let _ = replay(&w.llc, &mut cache);
                cache.finish();
                cache.efficiency().expect("tracking enabled").overall()
            })
        })
        .collect();
    let effs = ctx
        .engine
        .run_batch("fig1/dead-fraction", jobs)
        .expect_all();
    1.0 - effs.iter().sum::<f64>() / effs.len() as f64
}

/// Runs the experiment (paper: efficiency 22% for LRU, 87% with SDBP;
/// blocks dead on average 86.2% of the time under LRU).
pub fn run(ctx: &Context) -> String {
    let bench = sdbp_workloads::benchmark("456.hmmer").expect("hmmer is in the suite");
    let w = ctx.store.record(&bench, 0);
    // The paper's Figure 1 uses a 1 MB 16-way LLC.
    let llc = CacheConfig::llc_with_capacity(1 << 20);

    let run_one = |name: &str| {
        let policy = standard().build(&PolicySpec::plain(name), llc, 1);
        let mut cache = Cache::with_policy(llc, policy.expect("registered policy"));
        cache.track_efficiency();
        let _ = replay(&w.llc, &mut cache);
        cache.finish();
        let overall = cache.efficiency().expect("tracking enabled").overall();
        (render_map(&cache), overall)
    };

    let (lru_map, lru_eff) = run_one("lru");
    let (sampler_map, sampler_eff) = run_one("sampler");

    let dead = suite_dead_fraction(ctx);
    format!(
        "Figure 1: 456.hmmer cache efficiency (live-time ratio), 1MB LLC\n\
         (darker '#' = dead longer; ' ' = fully live; 32 set-groups x 16 ways)\n\n\
         (a) LRU: overall efficiency {:.0}%\n{}\n\
         (b) sampler DBRB: overall efficiency {:.0}%\n{}\n\
         Suite-wide (19-benchmark subset, 2MB LRU LLC): blocks are dead \
         {:.1}% of their residency on average (paper SS I: 86.2%).\n",
        lru_eff * 100.0,
        lru_map,
        sampler_eff * 100.0,
        sampler_map,
        dead * 100.0
    )
}
