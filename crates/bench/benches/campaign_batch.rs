//! Batched lane-parallel campaign engine vs the scalar baselines.
//!
//! Two campaign shapes, each measured scalar and batched in the same
//! snapshot so the ratio is honest (same machine, same build, same
//! workload), plus the chaos campaign:
//!
//! * **sim** — N seeds over one scenario (the `st-serve` sim request):
//!   scalar = one `CompiledSystem` run per seed; batched = all seeds in
//!   one lockstep group.
//! * **shmoo grid** — periods × seeds (§4.2 sweep replicated over
//!   workloads): scalar = one run per cell, the nominal-period cell
//!   doubling as that seed's golden; batched = `st_testkit::shmoo_grid`,
//!   one lockstep group per period with the same golden amortization.
//! * **chaos** — the differential fault campaign `run_chaos_campaign`:
//!   one golden per distinct seed (batched through `run_configs`) plus
//!   attacked event and compiled runs per config. The row keeps its
//!   `chaos24_scalar` name, but snapshots before the goldens were
//!   shared per seed priced one golden per config; the separate
//!   batched chaos campaign (`chaos24_batched`) is retired.
//!
//! Every bench declares `Throughput::Elements` as *configurations per
//! iteration*, so snapshots report comparable ns/config
//! (`median_ns_per_element` in BENCH_*.json) — comparing raw ns/iter
//! across batch sizes is the BENCH_5 `lanes64_node` trap.

use st_bench::harness::{criterion_group, criterion_main, Criterion, Throughput};
use st_sim::time::SimDuration;
use st_testkit::chaos::{chaos_jobs, run_chaos_campaign};
use st_testkit::shmoo_grid;
use synchro_tokens::scenarios::{mixer_builder, pingpong_spec};
use synchro_tokens::system::SystemBuilder;
use synchro_tokens::{Backend, BatchedSystem, SbId, SystemSpec};

const CYCLES: u64 = 60;
const SIM_SEEDS: u64 = 16;
const GRID_PERIODS_NS: [u64; 5] = [4, 5, 6, 8, 10];
const CHAOS_SEEDS: u64 = 8;

fn bench_campaign_batch(c: &mut Criterion) {
    let spec = pingpong_spec();
    let budget = SimDuration::us(2000);
    let mut g = c.benchmark_group("campaign_batch");

    // --- sim: N seeds, one scenario ------------------------------------
    g.throughput(Throughput::Elements(SIM_SEEDS));
    g.bench_function("sim16_scalar_compiled", |b| {
        b.iter(|| {
            let mut reached = 0;
            for seed in 0..SIM_SEEDS {
                let mut sys =
                    mixer_builder(&spec, seed, CYCLES as usize).build_backend(Backend::Compiled);
                if matches!(
                    sys.run_until_cycles(CYCLES, budget),
                    Ok(synchro_tokens::system::RunOutcome::Reached)
                ) {
                    reached += 1;
                }
            }
            assert_eq!(reached, SIM_SEEDS);
            reached
        })
    });
    g.bench_function("sim16_batched", |b| {
        b.iter(|| {
            let builders = (0..SIM_SEEDS)
                .map(|seed| mixer_builder(&spec, seed, CYCLES as usize))
                .collect();
            let mut batch = BatchedSystem::build(builders).expect("pingpong batches");
            let outcomes = batch.run_until_cycles(CYCLES, budget);
            assert!(outcomes
                .iter()
                .all(|o| *o == synchro_tokens::system::RunOutcome::Reached));
            outcomes.len()
        })
    });

    // --- shmoo grid: periods × seeds -----------------------------------
    let periods: Vec<SimDuration> = GRID_PERIODS_NS
        .iter()
        .map(|&n| SimDuration::ns(n))
        .collect();
    let seeds: Vec<u64> = (0..SIM_SEEDS).collect();
    let cells = (periods.len() as u64) * SIM_SEEDS;
    let make =
        |s: SystemSpec, seed: u64| -> SystemBuilder { mixer_builder(&s, seed, CYCLES as usize) };
    g.throughput(Throughput::Elements(cells));
    g.bench_function("shmoo_grid80_scalar_compiled", |b| {
        b.iter(|| {
            // One run per (period, seed) cell; the sweep includes the
            // nominal period, so that cell doubles as the seed's
            // golden — the same amortization `shmoo_grid` applies.
            let mut passes = 0usize;
            for &seed in &seeds {
                let mut digests: Vec<u64> = Vec::new();
                let mut cells: Vec<(bool, Vec<u64>)> = Vec::new();
                for &period in &periods {
                    let mut s = spec.clone();
                    s.sbs[0].period = period;
                    let mut sys = make(s, seed).build_backend(Backend::Compiled);
                    let completed = matches!(
                        sys.run_until_cycles(CYCLES, budget),
                        Ok(synchro_tokens::system::RunOutcome::Reached)
                    );
                    let d: Vec<u64> = (0..spec.sbs.len())
                        .map(|i| sys.io_trace(SbId(i)).digest())
                        .collect();
                    if period == spec.sbs[0].period {
                        digests = d.clone();
                    }
                    cells.push((completed, d));
                }
                passes += cells
                    .iter()
                    .filter(|(completed, d)| *completed && *d == digests)
                    .count();
            }
            passes
        })
    });
    g.bench_function("shmoo_grid80_batched", |b| {
        b.iter(|| {
            let grid = shmoo_grid(&spec, SbId(0), &periods, &seeds, CYCLES, &make);
            assert_eq!(grid.len(), cells as usize);
            grid.iter().filter(|p| p.pass).count()
        })
    });

    // --- chaos: the differential fault campaign ------------------------
    let jobs = chaos_jobs(CHAOS_SEEDS);
    g.throughput(Throughput::Elements(jobs.len() as u64));
    g.bench_function("chaos24_scalar", |b| {
        b.iter(|| {
            let report = run_chaos_campaign(&spec, &jobs, CYCLES, budget, 1);
            assert!(report.violations().is_empty());
            report.runs.len()
        })
    });

    g.finish();
}

criterion_group!(benches, bench_campaign_batch);
criterion_main!(benches);
