//! Prefix-fork SEU campaign vs straight per-variant runs.
//!
//! The workload is the chip-level shape checkpointing exists for: one
//! configuration, many SEU strike-point variants that all first fire
//! *late* in the run (cycle 48 of 60). A straight campaign recomputes
//! the identical fault-free prefix once per variant; the prefix-fork
//! planner runs that prefix once, checkpoints the engine, and resumes
//! every variant from the blob — determinism makes the fork exact, so
//! the two campaigns are asserted outcome-identical before measuring.
//!
//! Both sides go through `run_seu_sweep` (the `min_fork_cycle` floor
//! disables forking for the baseline), so the comparison isolates the
//! prefix sharing itself, not incidental harness differences. Both
//! sides also simulate only the grid's 6 distinct faults (the 24
//! ping-pong variants repeat with period 6): each iteration runs 6
//! attacked engines for 24 counted variants.
//! Throughput is `Elements` = variants per iteration, comparable to
//! `campaign_batch/chaos24_batched` ns/config in BENCH_*.json.

use st_bench::harness::{criterion_group, criterion_main, Criterion, Throughput};
use st_sim::time::SimDuration;
use st_testkit::chaos::{run_seu_sweep, seu_sweep_plans};
use synchro_tokens::scenarios::pingpong_spec;

const CYCLES: u64 = 60;
const FIRE_AT: u64 = 48;
const VARIANTS: usize = 24;
const SEED: u64 = 5;

fn bench_campaign_fork(c: &mut Criterion) {
    let spec = pingpong_spec();
    let budget = SimDuration::us(2000);
    let plans = seu_sweep_plans(&spec, FIRE_AT, VARIANTS);

    // Honesty check before timing anything: forked and straight sweeps
    // must classify every variant identically.
    let straight = run_seu_sweep(&spec, SEED, &plans, CYCLES, budget, 1, CYCLES + 1);
    let forked = run_seu_sweep(&spec, SEED, &plans, CYCLES, budget, 1, 8);
    assert_eq!(straight.forked(), 0);
    assert_eq!(forked.forked(), VARIANTS);
    assert_eq!(forked.prefixes, 1);
    assert!(straight.violations().is_empty() && forked.violations().is_empty());
    for (s, f) in straight.runs.iter().zip(&forked.runs) {
        assert_eq!(s.outcome.1, f.outcome.1, "variant {}", s.index);
    }

    let mut g = c.benchmark_group("campaign_fork");
    g.throughput(Throughput::Elements(VARIANTS as u64));
    g.bench_function("seu24_late_straight", |b| {
        b.iter(|| {
            let report = run_seu_sweep(&spec, SEED, &plans, CYCLES, budget, 1, CYCLES + 1);
            assert_eq!(report.forked(), 0);
            report.runs.len()
        })
    });
    g.bench_function("seu24_late_forked", |b| {
        b.iter(|| {
            let report = run_seu_sweep(&spec, SEED, &plans, CYCLES, budget, 1, 8);
            assert_eq!(report.forked(), VARIANTS);
            report.runs.len()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_campaign_fork);
criterion_main!(benches);
