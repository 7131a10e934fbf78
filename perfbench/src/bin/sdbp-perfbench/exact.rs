//! `exact-matrix`: the paper's evaluation loop. Each trace is recorded
//! once, then replayed exactly under every policy (each followed by the
//! timing model) and under Belady MIN with bypass.

use crate::common::{
    conservation, exact_eval, llc, load_and_record, print_result, Deadline, Ops, Outcome, Run,
    POLICIES,
};
use crate::inputs::{generate, Input};
use crate::trace::Tracer;
use sdbp_traceio::FORMAT_V2;
use std::path::Path;
use std::time::Instant;

/// `429.mcf` chases pointers over a footprint far larger than the LLC;
/// `456.hmmer` has the PC-correlated block death the predictor is built for.
pub const TRACES: [(&str, u64); 2] = [("429.mcf", 6_000_000), ("456.hmmer", 6_000_000)];

/// Rounds per timed run, at least, so each cell's median has three samples.
const MIN_ROUNDS: usize = 3;

/// Writes the workload's inputs.
pub fn inputs(dir: &Path, seed: u64) -> Result<Vec<Input>, String> {
    TRACES
        .iter()
        .map(|&(b, n)| generate(dir, b, seed, n, FORMAT_V2))
        .collect()
}

/// Runs the workload.
pub fn run(
    t: &mut Tracer,
    inputs: &[Input],
    seconds: f64,
    setups: usize,
    ops: &mut Ops,
) -> Result<Run, String> {
    let mut run = Run::default();
    let mut workloads = Vec::new();
    for _ in 0..setups {
        workloads.clear();
        let setup = t.enter("bench.setup");
        let start = Instant::now();
        for input in inputs {
            workloads.push(load_and_record(t, &input.path)?);
        }
        run.setup_s.push(start.elapsed().as_secs_f64());
        t.exit(setup, 0);
    }

    // References, outside every timed region: MIN with bypass, the
    // Belady lower bound on every policy's misses.
    let mins: Vec<u64> = workloads
        .iter()
        .map(|w| sdbp_optimal::simulate(&w.llc, llc()).misses)
        .collect();

    let mut first: Vec<Outcome> = Vec::new();
    let timed = t.enter("bench.loop");
    let mut deadline = Deadline::start(seconds, MIN_ROUNDS);
    while deadline.more(&mut run) {
        let mut cell = 0;
        for ((w, &min), input) in workloads.iter().zip(&mins).zip(inputs) {
            let label = input.label();
            for policy in POLICIES {
                let job = t.enter("bench.job");
                let start = Instant::now();
                let (stats, ipc) = exact_eval(t, w, policy);
                run.job(cell, start);
                t.exit(job, w.instructions());
                let outcome = Outcome::of(&stats, ipc);
                let reference = *first.get(cell).unwrap_or(&outcome);
                if first.len() == cell {
                    first.push(outcome);
                    print_result(&label, policy, stats.misses, &format!(" ipc={ipc}"));
                }
                ops.record(
                    &format!("{label} {policy}"),
                    [
                        conservation(&stats),
                        (stats.misses < min)
                            .then(|| format!("misses {} below MIN {min}", stats.misses)),
                        (outcome != reference)
                            .then(|| format!("{outcome:?} differs from first pass {reference:?}")),
                    ],
                );
                cell += 1;
                run.sim_instructions += w.instructions();
            }
            let job = t.enter("bench.job");
            let start = Instant::now();
            let opt = t.span("optimal.min", w.llc.len() as u64, || {
                sdbp_optimal::simulate(&w.llc, llc())
            });
            run.job(cell, start);
            t.exit(job, w.instructions());
            if first.len() == cell {
                first.push(Outcome {
                    accesses: opt.accesses,
                    hits: opt.hits,
                    misses: opt.misses,
                    ipc_bits: 0,
                });
                print_result(&label, "min", opt.misses, "");
            }
            ops.record(
                &format!("{label} min"),
                [
                    (opt.hits + opt.misses != opt.accesses)
                        .then(|| "MIN hits + misses != accesses".to_owned()),
                    (opt.misses != min)
                        .then(|| format!("MIN misses {} != reference {min}", opt.misses)),
                ],
            );
            cell += 1;
            run.sim_instructions += w.instructions();
        }
    }
    t.exit(timed, run.pooled_ms.len() as u64);
    Ok(run)
}
