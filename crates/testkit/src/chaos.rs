//! Chaos campaigns: differential fault-injection sweeps over both
//! simulation backends.
//!
//! The determinism claim this reproduction exists to check — every SB's
//! I/O sequence is a pure function of its local cycle count — is only
//! believable if it survives an *adversary*. This module drives the
//! fault layers of [`synchro_tokens::faults`] as a campaign: for each
//! `(seed, fault class)` configuration it generates a replayable
//! [`FaultPlan`], runs it on **both** backends (event kernel and
//! compiled engine), and holds each run to the class's oracle:
//!
//! | class    | injected faults                         | oracle |
//! |----------|-----------------------------------------|--------|
//! | analog   | clock jitter/drift, wire-delay jitter   | I/O traces **byte-identical** to the unfaulted golden |
//! | protocol | token loss/dup/delay, req/ack drops, FIFO stalls | a *classified* outcome — trace-identical, divergence with first cycle, or deadlock naming the stalled SBs; never a hang |
//! | state    | SEU bit flips in node counters/latches  | same as protocol |
//!
//! Every run is budget-bounded, so "never a hang" is enforced
//! mechanically: a run that fails to terminate classifies as
//! [`ChaosOutcome::Timeout`], which the protocol/state oracle accepts as
//! a diagnosis but the analog oracle reports as a violation. On top of
//! the per-class oracle, every plan's [`ChaosOutcome`] must be
//! *identical across backends* — fault handling is part of the
//! behavioural contract the compiled engine mirrors.
//!
//! Jobs fan out over [`run_jobs`](synchro_tokens::run_jobs), so a
//! campaign report is byte-identical at any thread count.
//! `ST_CHAOS_CONFIGS` caps the configuration count for smoke runs (see
//! [`configs_from_env`]).

use st_sim::time::{SimDuration, SimTime};
use st_sim::SimError;
use std::collections::hash_map::{Entry, HashMap};
use std::fmt;
use std::time::Instant;
use synchro_tokens::prelude::*;
use synchro_tokens::scenarios::mixer_builder;
use synchro_tokens::{
    classify, run_with_plan, run_with_plan_resumed, BackendKind, CampaignStats, ChaosOutcome,
};
use synchro_tokens::{DecodedCheckpoint, FaultClass, FaultPlan, SeuFault, SeuTarget};

/// One chaos configuration: a plan seed and the fault class to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosJob {
    /// Seed for both the plan generation and the workload salt.
    pub seed: u64,
    /// Which fault layer to attack.
    pub class: FaultClass,
}

/// The full cross-product of `seeds` seeds with all three fault classes,
/// in canonical (seed-major) order.
pub fn chaos_jobs(seeds: u64) -> Vec<ChaosJob> {
    let classes = [FaultClass::Analog, FaultClass::Protocol, FaultClass::State];
    (0..seeds)
        .flat_map(|seed| classes.map(|class| ChaosJob { seed, class }))
        .collect()
}

/// Resolves the campaign size: `ST_CHAOS_CONFIGS` (a positive integer)
/// overrides `full` — CI smoke runs set a small cap, the default run
/// keeps the full sweep.
pub fn configs_from_env(full: usize) -> usize {
    match std::env::var("ST_CHAOS_CONFIGS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => full,
        },
        Err(_) => full,
    }
}

/// The verdict of one configuration: the generated plan, the classified
/// outcome per backend, and any oracle violations.
#[derive(Debug, Clone)]
pub struct ChaosRun {
    /// The configuration that produced this run.
    pub job: ChaosJob,
    /// The plan that was injected (replayable from `job` alone).
    pub plan: FaultPlan,
    /// `(engine actually used, classified outcome)` per attacked
    /// backend, in `[event, compiled]` order.
    pub outcomes: Vec<(BackendKind, ChaosOutcome)>,
    /// Oracle violations — empty on a conforming run.
    pub violations: Vec<String>,
}

/// A completed chaos campaign.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Every configuration's verdict, in job order.
    pub runs: Vec<ChaosRun>,
    /// Wall-clock / throughput counters (machine-dependent; excluded
    /// from any byte-compared artefact).
    pub stats: CampaignStats,
}

impl ChaosReport {
    /// All violations across the campaign, prefixed with their job.
    pub fn violations(&self) -> Vec<String> {
        self.runs
            .iter()
            .flat_map(|r| {
                r.violations
                    .iter()
                    .map(move |v| format!("seed {} {}: {v}", r.job.seed, r.job.class))
            })
            .collect()
    }

    /// How many runs classified under `label` on the event backend
    /// (labels: `trace-identical`, `divergence`, `deadlock`, `timeout`).
    pub fn count(&self, label: &str) -> usize {
        self.runs
            .iter()
            .filter(|r| r.outcomes.first().is_some_and(|(_, o)| o.label() == label))
            .count()
    }

    /// Plans exercised per wall-clock second.
    pub fn plans_per_second(&self) -> f64 {
        if self.stats.wall_seconds <= 0.0 {
            return 0.0;
        }
        self.runs.len() as f64 / self.stats.wall_seconds
    }
}

impl fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "chaos campaign: {} configs, {} violations ({:.1} plans/s)",
            self.runs.len(),
            self.violations().len(),
            self.plans_per_second()
        )?;
        for label in ["trace-identical", "divergence", "deadlock", "timeout"] {
            writeln!(f, "  {label:>16}: {}", self.count(label))?;
        }
        Ok(())
    }
}

/// Runs a differential chaos campaign over `spec`: every job generates
/// its plan, replays it on the event *and* compiled backends, and checks
/// the per-class oracle plus cross-backend outcome agreement. Golden
/// traces come from one unfaulted run per distinct seed through
/// [`run_configs`], which batches them when it can; the engines are
/// byte-identical unfaulted, so one golden serves both attacked runs
/// and every fault class of its seed.
///
/// The campaign itself is deterministic: the report's runs are a pure
/// function of `(spec, jobs, cycles, budget)` at any `threads` count.
pub fn run_chaos_campaign(
    spec: &SystemSpec,
    jobs: &[ChaosJob],
    cycles: u64,
    budget: SimDuration,
    threads: usize,
) -> ChaosReport {
    match run_chaos_campaign_hooked(spec, jobs, cycles, budget, threads, RunHooks::default()) {
        Ok(report) => report,
        Err(_) => unreachable!("no cancel token was installed"),
    }
}

/// Jobified [`run_chaos_campaign`]: the same differential campaign with
/// [`RunHooks`] for cooperative cancellation (checked between golden
/// shards and between configurations) and progress reporting (per
/// configuration), so chaos sweeps can run as cancellable service jobs
/// under `st-serve`'s worker pool.
///
/// # Errors
///
/// Returns [`Cancelled`](synchro_tokens::Cancelled) carrying the
/// completed [`ChaosRun`]s (in job order) when the token trips before
/// the last configuration is claimed.
pub fn run_chaos_campaign_hooked(
    spec: &SystemSpec,
    jobs: &[ChaosJob],
    cycles: u64,
    budget: SimDuration,
    threads: usize,
    hooks: RunHooks<'_>,
) -> Result<ChaosReport, synchro_tokens::Cancelled<ChaosRun>> {
    let started = Instant::now();
    let mut seeds: Vec<u64> = Vec::new();
    for j in jobs {
        if !seeds.contains(&j.seed) {
            seeds.push(j.seed);
        }
    }
    let limits = RunLimits {
        cycles,
        budget,
        stop: Stop::Verdict,
    };
    let golden_hooks = RunHooks {
        progress: None,
        ..hooks
    };
    let make = |i: usize| mixer_builder(spec, seeds[i], cycles as usize);
    let goldens: Vec<Golden> = run_configs(
        seeds.len(),
        make,
        Backend::Compiled,
        limits,
        threads,
        golden_hooks,
        |_, run| {
            let traces = (0..spec.sbs.len())
                .map(|i| run.io_trace(SbId(i)).into_owned())
                .collect();
            (run.outcome, traces)
        },
    )
    .map_err(|_| synchro_tokens::Cancelled {
        completed: Vec::new(),
        total: jobs.len(),
    })?;
    let runs = run_jobs_hooked(jobs, threads, hooks, |_, job| {
        let gi = seeds
            .iter()
            .position(|&s| s == job.seed)
            .expect("every job seed has a golden");
        run_one(spec, *job, &goldens[gi], cycles, budget)
    })?;
    let stats = CampaignStats {
        // Two attacked backends per configuration, one golden per seed.
        runs: runs.len() * 2 + seeds.len(),
        threads: effective_threads(threads),
        wall_seconds: started.elapsed().as_secs_f64(),
        events_fired: 0,
        wakes: 0,
    };
    Ok(ChaosReport { runs, stats })
}

/// An unfaulted run's outcome and per-SB traces.
type Golden = (Result<RunOutcome, SimError>, Vec<SbIoTrace>);

fn run_one(
    spec: &SystemSpec,
    job: ChaosJob,
    (golden_outcome, golden): &Golden,
    cycles: u64,
    budget: SimDuration,
) -> ChaosRun {
    let plan = FaultPlan::generate(job.class, spec, job.seed);
    let mut violations = Vec::new();
    match golden_outcome {
        Ok(RunOutcome::Reached) => {}
        other => violations.push(format!(
            "golden run did not reach {cycles} cycles: {other:?}"
        )),
    }

    let mut outcomes = Vec::new();
    for backend in [Backend::Event, Backend::Compiled] {
        let mut sys = mixer_builder(spec, job.seed, cycles as usize)
            .with_fault_plan(plan.clone())
            .build_backend(backend);
        let outcome = match run_with_plan(&mut sys, &plan, cycles, budget) {
            Ok(o) => o,
            Err(e) => {
                violations.push(format!("{backend:?} backend kernel error: {e}"));
                RunOutcome::TimedOut
            }
        };
        outcomes.push((sys.backend_kind(), classify(golden, &sys, &outcome)));
    }

    // Oracle 1 — the invariant proper: analog-class faults must leave
    // every trace byte-identical on every backend.
    if plan.is_analog_only() {
        for (kind, outcome) in &outcomes {
            if *outcome != ChaosOutcome::TraceIdentical {
                violations.push(format!(
                    "analog fault broke the invariant on {kind:?}: {outcome}"
                ));
            }
        }
    }

    // Oracle 2 — differential: both backends must reach the same
    // classification for the same plan.
    if outcomes.len() == 2 && outcomes[0].1 != outcomes[1].1 {
        violations.push(format!(
            "backends disagree: {:?}={} vs {:?}={}",
            outcomes[0].0, outcomes[0].1, outcomes[1].0, outcomes[1].1
        ));
    }

    ChaosRun {
        job,
        plan,
        outcomes,
        violations,
    }
}

// --- Prefix-fork SEU sweeps ----------------------------------------------

thread_local! {
    // One rewindable engine per sweep worker: forked variants restore
    // the shared prefix checkpoint into it in place instead of lowering
    // a fresh engine each time. Helper threads die with their sweep;
    // only the calling thread retains its engine (a few KiB) between
    // sweeps, where a changed configuration fails the restore's hash
    // check and the engine is rebuilt from the new blob.
    static FORK_ENGINE: std::cell::RefCell<Option<AnySystem>> =
        const { std::cell::RefCell::new(None) };
}

/// A deterministic grid of SEU-only plan variants over `spec`, all
/// first (and only) firing at local cycle `at_cycle`: variant `i`
/// strikes ring `i % rings` on alternating holder/peer sides, cycling
/// through hold-bit, recycle-bit and token-latch targets. Because every
/// variant shares one first-fire cycle, a prefix-fork sweep amortises a
/// single nominal prefix across the whole grid — the shape a chip-level
/// SEU susceptibility scan takes (one workload, many strike points).
///
/// The grid is not all distinct: the variants repeat with a period set
/// by the ring count. 24 variants hold 6 distinct faults on ping-pong
/// (1 ring) and 14 on E1 (3 rings, where ring and target advance
/// together and a token-latch flip has no bit). [`run_seu_sweep`]
/// simulates each distinct plan once and links the repeats to it.
pub fn seu_sweep_plans(spec: &SystemSpec, at_cycle: u64, count: usize) -> Vec<FaultPlan> {
    (0..count)
        .map(|i| {
            let ring_idx = i % spec.rings.len();
            let ring = &spec.rings[ring_idx];
            let rounds = i / spec.rings.len();
            let sb = if rounds.is_multiple_of(2) {
                ring.holder
            } else {
                ring.peer
            };
            let bit = (rounds as u32 / 2) % 3;
            let target = match i % 3 {
                0 => SeuTarget::HoldBit(bit),
                1 => SeuTarget::RecycleBit(bit),
                _ => SeuTarget::TokenLatch,
            };
            FaultPlan {
                seu: vec![SeuFault {
                    sb,
                    ring: RingId(ring_idx),
                    at_cycle,
                    target,
                }],
                ..FaultPlan::default()
            }
        })
        .collect()
}

/// One variant's verdict in a prefix-fork SEU sweep.
#[derive(Debug, Clone)]
pub struct SeuSweepRun {
    /// Position of this variant in the input plan list.
    pub index: usize,
    /// The injected plan.
    pub plan: FaultPlan,
    /// `(engine used, classified outcome)` — compiled backend.
    pub outcome: (BackendKind, ChaosOutcome),
    /// Whether this variant resumed from a shared prefix checkpoint
    /// (`false` means it fell back to a full straight run).
    pub forked: bool,
    /// Oracle violations — empty on a conforming run.
    pub violations: Vec<String>,
    /// The index of the earlier, equal variant whose simulation this
    /// one reuses (`None` when this variant was simulated itself).
    /// `outcome`, `forked` and `violations` are copied from it.
    pub same_as: Option<usize>,
}

/// A completed prefix-fork SEU sweep.
#[derive(Debug, Clone)]
pub struct SeuSweepReport {
    /// Every variant's verdict, in plan order.
    pub runs: Vec<SeuSweepRun>,
    /// Distinct first-fire cycles that earned a shared prefix
    /// checkpoint (each cost one nominal prefix run).
    pub prefixes: usize,
    /// Wall-clock / throughput counters (machine-dependent; excluded
    /// from any byte-compared artefact).
    pub stats: CampaignStats,
}

impl SeuSweepReport {
    /// How many variants resumed from a shared prefix.
    pub fn forked(&self) -> usize {
        self.runs.iter().filter(|r| r.forked).count()
    }

    /// All violations across the sweep, prefixed with their variant.
    pub fn violations(&self) -> Vec<String> {
        self.runs
            .iter()
            .flat_map(|r| {
                r.violations
                    .iter()
                    .map(move |v| format!("variant {}: {v}", r.index))
            })
            .collect()
    }
}

/// Prefix-fork SEU sweep: runs every plan variant against one workload
/// `(spec, seed)`, sharing the fault-free prefix below each variant's
/// first strike cycle through engine checkpoints instead of recomputing
/// it per variant.
///
/// Determinism makes the fork *exact*, not approximate: an SEU-only
/// plan leaves the engine configuration untouched (the flips are
/// applied from outside by [`run_with_plan`]), so the nominal run's
/// state at the strike cycle **is** the variant's state — resuming a
/// checkpoint of it and continuing with
/// [`run_with_plan_resumed`] replays the exact call sequence
/// `run_with_plan` would have made, byte for byte. Per distinct
/// first-fire cycle `f` (with `f >= min_fork_cycle`), the sweep runs
/// one nominal prefix to `f`, checkpoints, and forks every variant
/// firing at `f` from that blob. Variants that are not SEU-only, fire
/// before `min_fork_cycle`, or whose prefix failed to reach `f` fall
/// back to a full straight run — the report is identical either way,
/// only the cost differs.
///
/// Equal plans collapse: every other input is shared by the whole
/// sweep, so a variant's verdict depends only on its plan, and each
/// distinct plan is simulated once. A repeat copies its verdict from
/// the first equal variant and names it in [`SeuSweepRun::same_as`].
///
/// The sweep is deterministic: the report's runs are a pure function of
/// `(spec, seed, plans, cycles, budget, min_fork_cycle)` at any
/// `threads` count.
pub fn run_seu_sweep(
    spec: &SystemSpec,
    seed: u64,
    plans: &[FaultPlan],
    cycles: u64,
    budget: SimDuration,
    threads: usize,
    min_fork_cycle: u64,
) -> SeuSweepReport {
    let started = Instant::now();

    // Golden: the unfaulted workload, for outcome classification.
    let mut golden_sys =
        mixer_builder(spec, seed, cycles as usize).build_backend(Backend::Compiled);
    let golden_outcome = golden_sys
        .run_to_verdict(cycles, budget)
        .unwrap_or(RunOutcome::TimedOut);
    let golden: Vec<SbIoTrace> = (0..spec.sbs.len())
        .map(|i| golden_sys.io_trace(SbId(i)).clone())
        .collect();

    // The fork cycle a plan is eligible for, if any.
    let fork_cycle = |plan: &FaultPlan| -> Option<u64> {
        plan.seu_only_first_fire()
            .map(|f| f.min(cycles))
            .filter(|&f| f >= min_fork_cycle && f > 0)
    };

    // Collapse equal plans onto their first occurrence, in one hashed
    // pass: `distinct` holds the indices of the plans to simulate.
    let mut firsts: HashMap<&FaultPlan, usize> = HashMap::with_capacity(plans.len());
    let mut distinct: Vec<usize> = Vec::new();
    let same_as: Vec<Option<usize>> = plans
        .iter()
        .enumerate()
        .map(|(i, plan)| match firsts.entry(plan) {
            Entry::Occupied(e) => Some(*e.get()),
            Entry::Vacant(e) => {
                e.insert(i);
                distinct.push(i);
                None
            }
        })
        .collect();

    // One shared nominal prefix checkpoint per distinct eligible
    // first-fire cycle. A prefix that fails to reach its cycle or a
    // configuration outside the checkpoint envelope simply yields no
    // entry — its variants fall back to straight runs.
    let mut fire_cycles: Vec<u64> = plans.iter().filter_map(&fork_cycle).collect();
    fire_cycles.sort_unstable();
    fire_cycles.dedup();
    let prefixes: Vec<(u64, DecodedCheckpoint)> = fire_cycles
        .into_iter()
        .filter_map(|f| {
            let mut sys =
                mixer_builder(spec, seed, cycles as usize).build_backend(Backend::Compiled);
            match sys.run_until_cycles(f, budget) {
                // Decode once here: every variant restores from the
                // decoded state instead of re-parsing the blob.
                Ok(RunOutcome::Reached) => sys
                    .checkpoint()
                    .ok()
                    .and_then(|c| c.decode().ok())
                    .map(|c| (f, c)),
                _ => None,
            }
        })
        .collect();

    let simulated = run_jobs(&distinct, threads, |_, &index| {
        let plan = &plans[index];
        let mut violations = Vec::new();
        if golden_outcome != RunOutcome::Reached {
            violations.push(format!(
                "golden run did not reach {cycles} cycles: {golden_outcome:?}"
            ));
        }

        let straight = |violations: &mut Vec<String>| {
            let mut sys = mixer_builder(spec, seed, cycles as usize)
                .with_fault_plan(plan.clone())
                .build_backend(Backend::Compiled);
            let outcome = match run_with_plan(&mut sys, plan, cycles, budget) {
                Ok(o) => o,
                Err(e) => {
                    violations.push(format!("compiled backend kernel error: {e}"));
                    RunOutcome::TimedOut
                }
            };
            (sys.backend_kind(), classify(&golden, &sys, &outcome), false)
        };

        let shared = fork_cycle(plan).and_then(|f| {
            prefixes
                .iter()
                .find(|(pf, _)| *pf == f)
                .map(|(_, c)| (f, c))
        });
        let (kind, outcome, forked) = match shared {
            Some((f, ckpt)) => {
                // SEU-only ⇒ the variant's engine configuration is the
                // nominal one, so the nominal blob resumes directly.
                // Each worker keeps one engine and rewinds it in place
                // per variant; `restore_decoded` fully overwrites the
                // previous variant's state and is fail-closed on any
                // configuration mismatch, so reuse is exact.
                let fork_run = FORK_ENGINE.with(|cell| {
                    let mut slot = cell.borrow_mut();
                    let mut ready = slot
                        .as_mut()
                        .is_some_and(|sys| sys.restore_decoded(ckpt).is_ok());
                    if !ready {
                        match AnySystem::resume_decoded(
                            mixer_builder(spec, seed, cycles as usize),
                            ckpt,
                        ) {
                            Ok(sys) => {
                                *slot = Some(sys);
                                ready = true;
                            }
                            Err(_) => *slot = None,
                        }
                    }
                    if !ready {
                        return None;
                    }
                    let sys = slot.as_mut().expect("engine cached above");
                    // The straight run's deadline is `now + budget` at
                    // entry with `now == 0`; replay it exactly.
                    let outcome =
                        match run_with_plan_resumed(sys, plan, f, cycles, SimTime::ZERO + budget) {
                            Ok(o) => o,
                            Err(e) => {
                                violations.push(format!("compiled backend kernel error: {e}"));
                                RunOutcome::TimedOut
                            }
                        };
                    Some((sys.backend_kind(), classify(&golden, sys, &outcome)))
                });
                match fork_run {
                    Some((kind, outcome)) => (kind, outcome, true),
                    None => straight(&mut violations),
                }
            }
            None => straight(&mut violations),
        };

        SeuSweepRun {
            index,
            plan: plan.clone(),
            outcome: (kind, outcome),
            forked,
            violations,
            same_as: None,
        }
    });

    // Expand back to plan order: the simulated runs arrive in the order
    // of their first occurrences, and every repeat points before itself.
    let mut simulated = simulated.into_iter();
    let mut runs: Vec<SeuSweepRun> = Vec::with_capacity(plans.len());
    for (index, (plan, same_as)) in plans.iter().zip(same_as).enumerate() {
        let run = match same_as {
            None => simulated.next().expect("one run per distinct plan"),
            Some(first) => {
                let first = &runs[first];
                SeuSweepRun {
                    index,
                    plan: plan.clone(),
                    outcome: first.outcome.clone(),
                    forked: first.forked,
                    violations: first.violations.clone(),
                    same_as,
                }
            }
        };
        runs.push(run);
    }

    let stats = CampaignStats {
        // One attacked engine per distinct plan, plus the golden and
        // one nominal prefix per shared checkpoint.
        runs: distinct.len() + 1 + prefixes.len(),
        threads: effective_threads(threads),
        wall_seconds: started.elapsed().as_secs_f64(),
        events_fired: 0,
        wakes: 0,
    };
    SeuSweepReport {
        runs,
        prefixes: prefixes.len(),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synchro_tokens::scenarios::{e1_spec, pingpong_spec};

    #[test]
    fn job_grid_is_canonical() {
        let jobs = chaos_jobs(3);
        assert_eq!(jobs.len(), 9);
        assert_eq!(jobs[0].class, FaultClass::Analog);
        assert_eq!(jobs[1].class, FaultClass::Protocol);
        assert_eq!(jobs[3].seed, 1);
    }

    #[test]
    fn campaign_report_is_thread_count_invariant() {
        let spec = pingpong_spec();
        let jobs = chaos_jobs(2);
        let run = |threads| {
            run_chaos_campaign(&spec, &jobs, 60, SimDuration::us(2000), threads)
                .runs
                .iter()
                .map(|r| (r.job, r.outcomes.clone(), r.violations.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(4));
    }

    /// `plan` with its first SEU edited by `edit`.
    fn edited(plan: &FaultPlan, edit: impl FnOnce(&mut SeuFault)) -> FaultPlan {
        let mut plan = plan.clone();
        edit(&mut plan.seu[0]);
        plan
    }

    #[test]
    fn seu_sweep_forks_and_matches_straight_runs() {
        let spec = pingpong_spec();
        let (seed, cycles, budget) = (3u64, 60u64, SimDuration::us(2000));
        // Two fire-cycle cohorts plus a protocol plan that must fall
        // back to a straight run.
        let mut plans = seu_sweep_plans(&spec, 44, 5);
        plans.extend(seu_sweep_plans(&spec, 52, 5));
        let protocol = FaultPlan::generate(FaultClass::Protocol, &spec, seed);
        plans.push(protocol.clone());
        // Repeats (11..=14) collapse onto their first occurrence...
        plans.extend([
            plans[0].clone(),
            protocol,
            plans[7].clone(),
            plans[0].clone(),
        ]);
        // ...near-duplicates (15..=17) differ in one field and must not:
        // the strike cycle (a third fork cohort), the bit, the SB.
        let ring = &spec.rings[0];
        plans.extend([
            edited(&plans[0], |s| s.at_cycle = 48),
            edited(&plans[0], |s| s.target = SeuTarget::HoldBit(1)),
            edited(&plans[0], |s| s.sb = ring.peer),
        ]);
        assert_eq!(plans[0].seu[0].target, SeuTarget::HoldBit(0));
        assert_eq!(plans[0].seu[0].sb, ring.holder);
        let report = run_seu_sweep(&spec, seed, &plans, cycles, budget, 2, 8);

        assert_eq!(report.prefixes, 3, "one shared prefix per fire cycle");
        assert_eq!(report.forked(), 16, "every SEU-only variant must fork");
        assert!(!report.runs[10].forked, "protocol plan must not fork");
        assert!(!report.runs[12].forked, "its repeat must not fork either");
        assert!(report.violations().is_empty(), "{:?}", report.violations());
        let links: Vec<Option<usize>> = report.runs.iter().map(|r| r.same_as).collect();
        let mut want = vec![None; plans.len()];
        want[11] = Some(0);
        want[12] = Some(10);
        want[13] = Some(7);
        want[14] = Some(0);
        assert_eq!(links, want, "repeats and only repeats collapse");
        assert_eq!(report.stats.runs, 14 + 1 + 3, "distinct, golden, prefixes");

        // The collapsed, forked sweep must classify every variant
        // exactly as its own naive straight run.
        let mut golden_sys =
            mixer_builder(&spec, seed, cycles as usize).build_backend(Backend::Compiled);
        golden_sys.run_until_cycles(cycles, budget).unwrap();
        let golden: Vec<SbIoTrace> = (0..spec.sbs.len())
            .map(|i| golden_sys.io_trace(SbId(i)).clone())
            .collect();
        for (i, plan) in plans.iter().enumerate() {
            assert_eq!((report.runs[i].index, &report.runs[i].plan), (i, plan));
            let mut sys = mixer_builder(&spec, seed, cycles as usize)
                .with_fault_plan(plan.clone())
                .build_backend(Backend::Compiled);
            let outcome = run_with_plan(&mut sys, plan, cycles, budget).unwrap();
            assert_eq!(
                report.runs[i].outcome.1,
                classify(&golden, &sys, &outcome),
                "variant {i} diverged from its straight run"
            );
        }
    }

    #[test]
    fn seu_sweep_on_e1_simulates_each_distinct_fault_once() {
        let spec = e1_spec();
        let plans = seu_sweep_plans(&spec, 40, 24);
        let report = run_seu_sweep(&spec, 5, &plans, 60, SimDuration::us(2000), 1, 8);
        assert!(report.violations().is_empty(), "{:?}", report.violations());
        assert_eq!(report.prefixes, 1);
        assert_eq!(report.forked(), 24, "repeats report their first's fork");
        assert_eq!(report.stats.runs, 14 + 1 + 1, "14 distinct faults");
        // Ring and target advance together on 3 rings, so each ring's
        // (side, bit) cycle repeats after 6 strikes, and a token-latch
        // flip (ring 2) has no bit: only its side varies.
        let mut want = vec![None; 24];
        for (repeat, first) in [
            (8, 2),
            (11, 5),
            (14, 2),
            (17, 5),
            (18, 0),
            (19, 1),
            (20, 2),
            (21, 3),
            (22, 4),
            (23, 5),
        ] {
            want[repeat] = Some(first);
        }
        let links: Vec<Option<usize>> = report.runs.iter().map(|r| r.same_as).collect();
        assert_eq!(links, want);
        for r in &report.runs {
            if let Some(first) = r.same_as {
                let first = &report.runs[first];
                assert_eq!(first.same_as, None, "links point at a simulated run");
                assert_eq!(r.plan, first.plan);
                assert_eq!(
                    (&r.outcome, r.forked, &r.violations),
                    (&first.outcome, first.forked, &first.violations)
                );
            }
        }
    }

    #[test]
    fn seu_sweep_respects_min_fork_cycle() {
        let spec = pingpong_spec();
        let plans = seu_sweep_plans(&spec, 10, 4);
        let report = run_seu_sweep(&spec, 1, &plans, 60, SimDuration::us(2000), 1, 32);
        assert_eq!(report.prefixes, 0, "fires below the floor share nothing");
        assert_eq!(report.forked(), 0);
        assert!(report.violations().is_empty());
    }

    #[test]
    fn seu_sweep_is_thread_count_invariant() {
        let spec = pingpong_spec();
        // 9 variants of a 6-periodic grid: the last three repeat.
        let mut plans = seu_sweep_plans(&spec, 48, 9);
        plans.push(plans[4].clone());
        let run = |threads| {
            run_seu_sweep(&spec, 7, &plans, 60, SimDuration::us(2000), threads, 8)
                .runs
                .iter()
                .map(|r| {
                    (
                        r.index,
                        r.plan.clone(),
                        r.outcome.clone(),
                        r.forked,
                        r.violations.clone(),
                        r.same_as,
                    )
                })
                .collect::<Vec<_>>()
        };
        let one = run(1);
        assert_eq!(one.iter().filter(|r| r.5.is_some()).count(), 4);
        assert_eq!(one, run(3));
    }

    #[test]
    fn configs_env_cap_parses() {
        // This test fn owns all ST_CHAOS_CONFIGS mutation — the same
        // single-owner convention every env-knob test in the workspace
        // follows, so parallel test threads never race the environment.
        let prev = std::env::var("ST_CHAOS_CONFIGS").ok();
        std::env::remove_var("ST_CHAOS_CONFIGS");
        assert_eq!(configs_from_env(500), 500, "unset keeps the full sweep");
        std::env::set_var("ST_CHAOS_CONFIGS", "24");
        assert_eq!(configs_from_env(500), 24, "positive cap applies");
        std::env::set_var("ST_CHAOS_CONFIGS", " 12 ");
        assert_eq!(configs_from_env(500), 12, "whitespace trims");
        // Everything non-positive or unparsable keeps the full sweep:
        // a chaos campaign silently shrunk to zero would be a vacuous
        // oracle, so 0 is *not* honoured here (unlike thread knobs,
        // where 0 clamps to 1).
        std::env::set_var("ST_CHAOS_CONFIGS", "0");
        assert_eq!(configs_from_env(500), 500, "zero keeps the full sweep");
        std::env::set_var("ST_CHAOS_CONFIGS", "");
        assert_eq!(configs_from_env(500), 500, "empty keeps the full sweep");
        std::env::set_var("ST_CHAOS_CONFIGS", "banana");
        assert_eq!(configs_from_env(500), 500, "garbage keeps the full sweep");
        std::env::set_var("ST_CHAOS_CONFIGS", "-5");
        assert_eq!(configs_from_env(500), 500, "negative keeps the full sweep");
        std::env::set_var("ST_CHAOS_CONFIGS", "18446744073709551616");
        assert_eq!(configs_from_env(500), 500, "overflow keeps the full sweep");
        match prev {
            Some(v) => std::env::set_var("ST_CHAOS_CONFIGS", v),
            None => std::env::remove_var("ST_CHAOS_CONFIGS"),
        }
    }
}
