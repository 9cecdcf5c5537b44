//! Deterministic parallel campaign execution.
//!
//! Every experiment harness in this reproduction (the E1 determinism
//! sweep, the E8 scalability study) is a *bag of independent runs*: each
//! run builds its own [`Simulator`](st_sim::prelude::SimBuilder) from a
//! config, runs it to a budget, and reduces to a small result. Per-run
//! determinism is a property of the kernel (single-threaded, seeded);
//! nothing about it requires the *runs* to execute one after another.
//!
//! [`run_jobs`] fans a job list across OS threads with
//! `std::thread::scope` (no external dependencies — the dependency
//! policy in DESIGN.md §7 is unchanged) and merges results back **in
//! canonical job order**, so the output is bit-identical to a sequential
//! map regardless of thread count or completion interleaving. Campaign
//! reports produced through it are therefore byte-identical at 1, 2, or
//! N threads — asserted by the `campaign` integration tests.
//!
//! The worker-thread count comes from, in priority order: an explicit
//! argument, the `ST_THREADS` environment variable, and the machine's
//! available parallelism.
//!
//! [`run_configs`] sits on top for simulation campaigns: it runs a set
//! of system configurations and is the one place that decides which
//! engine runs them (batched lanes, scalar compiled, or the event
//! kernel).

use crate::batched_system::BatchedSystem;
use crate::compiled_system::{AnySystem, Backend};
use crate::iotrace::SbIoTrace;
use crate::spec::SbId;
use crate::system::{RunOutcome, SystemBuilder};
use st_sim::time::SimDuration;
use st_sim::SimError;
use std::borrow::Cow;
use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

/// Parses a positive-integer thread-count knob from the environment,
/// with the clamp-and-warn policy shared by every `*_THREADS` variable
/// in this workspace (`ST_THREADS`, `ST_SERVE_THREADS`, …):
///
/// * unset → `None` (caller picks its own fallback),
/// * a positive integer → `Some(n)`,
/// * `0` → `Some(1)` — the user asked for "as little parallelism as
///   possible", and handing 0 to a runner would be an invalid thread
///   count,
/// * unparsable → `None`, falling through to the caller's fallback.
///
/// The clamp and the parse failure each emit a one-time-per-variable
/// stderr warning naming the rejected value: a silently ignored knob is
/// worse than a noisy one.
pub fn threads_from_env(var: &str) -> Option<usize> {
    fn warn_once(var: &str, msg: String) {
        static WARNED: Mutex<Vec<String>> = Mutex::new(Vec::new());
        let mut seen = WARNED.lock().expect("thread-knob warning registry");
        if !seen.iter().any(|v| v == var) {
            seen.push(var.to_owned());
            eprintln!("{msg}");
        }
    }
    let v = std::env::var(var).ok()?;
    match v.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        Ok(_) => {
            warn_once(
                var,
                format!("warning: clamping {var}=0 to 1 (want a positive integer)"),
            );
            Some(1)
        }
        Err(_) => {
            warn_once(
                var,
                format!(
                    "warning: ignoring {var}={v:?} (want a positive integer); \
                     falling back to the default"
                ),
            );
            None
        }
    }
}

/// Resolves the worker-thread count for campaign runners.
///
/// `ST_THREADS` (a positive integer) overrides the machine's available
/// parallelism, with the [`threads_from_env`] clamp-and-warn policy;
/// unset or unparsable falls back to available parallelism.
pub fn default_threads() -> usize {
    threads_from_env("ST_THREADS")
        .unwrap_or_else(|| thread::available_parallelism().map_or(1, usize::from))
}

/// The lane cap of [`BatchedSystem::build`]: one FIFO occupancy
/// bitmask word's worth of lanes. When [`run_configs`] shards a set
/// across workers, no shard holds more configurations than this.
pub const DEFAULT_BATCH_LIMIT: usize = 64;

/// A cooperative cancellation flag shared between a campaign's caller
/// and its workers.
///
/// Cloning is cheap (an `Arc` bump) and every clone observes the same
/// flag. Cancellation is *cooperative at job granularity*: a worker
/// checks the token before claiming each job, so an in-flight job runs
/// to completion but nothing new starts. That is the right grain for
/// this codebase — individual simulation runs are budget-bounded and
/// short, while campaigns are thousands of them.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// True once [`cancel`](Self::cancel) has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Optional observation/control hooks for [`run_jobs_hooked`].
///
/// `progress` is invoked after every completed job with
/// `(jobs_completed_so_far, total_jobs)`. Under a multi-threaded fan-out
/// the calls come from worker threads and may arrive out of order
/// (completion order, not job order); the completed count is
/// monotonically accurate. The callback must be cheap — it runs on the
/// campaign's hot path.
#[derive(Default, Clone, Copy)]
pub struct RunHooks<'a> {
    /// Checked before each job is claimed; see [`CancelToken`].
    pub cancel: Option<&'a CancelToken>,
    /// `(completed, total)` after each finished job.
    pub progress: Option<&'a (dyn Fn(usize, usize) + Sync)>,
}

impl fmt::Debug for RunHooks<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunHooks")
            .field("cancel", &self.cancel)
            .field("progress", &self.progress.map(|_| "<fn>"))
            .finish()
    }
}

/// The partial state of a cancelled campaign: every `(job index, result)`
/// pair that completed before the token was honoured, in job order.
#[derive(Debug)]
pub struct Cancelled<R> {
    /// Completed jobs, sorted by job index.
    pub completed: Vec<(usize, R)>,
    /// The campaign's total job count.
    pub total: usize,
}

impl<R> fmt::Display for Cancelled<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "campaign cancelled after {} of {} jobs",
            self.completed.len(),
            self.total
        )
    }
}

/// Runs `worker` over every job, fanned across up to `threads` OS
/// threads (capped at the machine's available parallelism — CPU-bound
/// workers cannot profit from oversubscription), returning results
/// **in job order**.
///
/// Work is claimed from a shared atomic cursor, so long and short jobs
/// balance across workers; each worker buffers `(index, result)` pairs
/// and the merge reorders them canonically. The returned `Vec` is
/// bit-identical to `jobs.iter().enumerate().map(worker).collect()` for
/// any pure `worker`, at any thread count.
///
/// # Panics
///
/// A panicking worker aborts the campaign: remaining workers stop
/// claiming jobs, and the panic is re-raised on the calling thread
/// annotated with the failing job's index and `Debug` rendering (which
/// for campaign jobs carries the configuration/seed that crashed). When
/// several workers panic concurrently, the lowest failing job index is
/// reported, so the message is deterministic.
pub fn run_jobs<T, R, F>(jobs: &[T], threads: usize, worker: F) -> Vec<R>
where
    T: Sync + fmt::Debug,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    match run_jobs_hooked(jobs, threads, RunHooks::default(), worker) {
        Ok(results) => results,
        Err(_) => unreachable!("no cancel token was installed"),
    }
}

/// The worker-thread count [`run_jobs`] / [`run_jobs_hooked`] will
/// actually fan across for a request of `threads`: capped at the
/// machine's available parallelism. Campaign workers are CPU-bound
/// simulations, so oversubscription buys zero extra progress and pays
/// real context-switch overhead (BENCH_5's one-core container ran
/// `campaign_pingpong_4threads` *slower* than one thread). Callers
/// with blocking or IO-heavy workers that genuinely profit from more
/// threads than cores should build their own fan-out instead of
/// routing through the campaign runners.
///
/// Public so campaign reporters can record the thread count that
/// actually ran ([`CampaignStats::threads`]) rather than the one that
/// was requested — a silently reduced fan-out should at least be
/// visible in the stats.
pub fn effective_threads(threads: usize) -> usize {
    // Querying the machine reads cgroup files (~24 µs on a Linux
    // container); a one-thread request never needs the answer.
    if threads <= 1 {
        return 1;
    }
    let cores = thread::available_parallelism().map_or(usize::MAX, usize::from);
    threads.min(cores)
}

/// [`run_jobs`] with cooperative cancellation and progress reporting.
///
/// Behaves exactly like [`run_jobs`] — same canonical-order merge, same
/// panic propagation, same [`effective_threads`] cap at the machine's
/// available parallelism — until `hooks.cancel` is tripped, at which point
/// workers stop claiming new jobs promptly (the token is checked before
/// every claim) and the call returns [`Cancelled`] carrying every job
/// that *did* complete, in job order. `hooks.progress` fires once per
/// completed job with `(completed, total)`.
///
/// # Errors
///
/// Returns [`Cancelled`] (with partial, job-ordered results) when the
/// token is cancelled before the last job is claimed.
///
/// # Panics
///
/// Worker panics propagate exactly as in [`run_jobs`], and take
/// precedence over concurrent cancellation.
pub fn run_jobs_hooked<T, R, F>(
    jobs: &[T],
    threads: usize,
    hooks: RunHooks<'_>,
    worker: F,
) -> Result<Vec<R>, Cancelled<R>>
where
    T: Sync + fmt::Debug,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    // See [`effective_threads`] for the cap rationale; the fan-out
    // machinery itself stays directly testable via [`run_jobs_fanned`].
    run_jobs_fanned(jobs, effective_threads(threads), hooks, worker)
}

/// The uncapped fan-out engine behind [`run_jobs_hooked`]: claims jobs
/// from a shared cursor across exactly `threads` workers (the calling
/// thread is worker 0), merges in canonical job order.
fn run_jobs_fanned<T, R, F>(
    jobs: &[T],
    threads: usize,
    hooks: RunHooks<'_>,
    worker: F,
) -> Result<Vec<R>, Cancelled<R>>
where
    T: Sync + fmt::Debug,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.clamp(1, jobs.len().max(1));
    let cancelled = || hooks.cancel.is_some_and(CancelToken::is_cancelled);
    let done = AtomicUsize::new(0);
    let report = || {
        let completed = done.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(p) = hooks.progress {
            p(completed, jobs.len());
        }
    };
    if threads == 1 {
        let mut out = Vec::with_capacity(jobs.len());
        for (i, job) in jobs.iter().enumerate() {
            if cancelled() {
                return Err(Cancelled {
                    completed: out.into_iter().enumerate().collect(),
                    total: jobs.len(),
                });
            }
            match catch_unwind(AssertUnwindSafe(|| worker(i, job))) {
                Ok(r) => out.push(r),
                Err(payload) => rethrow(i, job, payload),
            }
            report();
        }
        return Ok(out);
    }
    let cursor = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    type Fail = (usize, Box<dyn std::any::Any + Send>);
    let work = || -> Result<Vec<(usize, R)>, Fail> {
        let mut out = Vec::new();
        loop {
            if failed.load(Ordering::Relaxed) || cancelled() {
                break;
            }
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= jobs.len() {
                break;
            }
            match catch_unwind(AssertUnwindSafe(|| worker(i, &jobs[i]))) {
                Ok(r) => out.push((i, r)),
                Err(payload) => {
                    failed.store(true, Ordering::Relaxed);
                    return Err((i, payload));
                }
            }
            report();
        }
        Ok(out)
    };
    // The calling thread is worker 0 and only `threads - 1` helpers are
    // spawned: `threads` workers total, but the caller claims jobs
    // instead of idling in `join()`. On a machine whose available
    // parallelism is below the requested thread count (the degenerate
    // case: one core), the campaign then degrades toward the sequential
    // path's cost instead of paying spawn/context-switch overhead for
    // zero extra progress (the BENCH_5 `campaign_pingpong_4threads`
    // regression).
    let buckets: Vec<Result<Vec<(usize, R)>, Fail>> = thread::scope(|s| {
        let work = &work;
        let handles: Vec<_> = (1..threads).map(|_| s.spawn(work)).collect();
        let mut buckets = vec![work()];
        buckets.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("campaign worker thread died outside a job")),
        );
        buckets
    });
    if failed.load(Ordering::Relaxed) {
        let (i, payload) = buckets
            .into_iter()
            .filter_map(Result::err)
            .min_by_key(|(i, _)| *i)
            .expect("a failure was flagged");
        rethrow(i, &jobs[i], payload);
    }
    let mut pairs: Vec<(usize, R)> = buckets.into_iter().flatten().flatten().collect();
    pairs.sort_by_key(|(i, _)| *i);
    if cancelled() && pairs.len() < jobs.len() {
        return Err(Cancelled {
            completed: pairs,
            total: jobs.len(),
        });
    }
    debug_assert!(
        pairs.iter().enumerate().all(|(slot, (i, _))| slot == *i),
        "every job executed exactly once"
    );
    Ok(pairs.into_iter().map(|(_, r)| r).collect())
}

/// Re-raises a caught worker panic annotated with the failing job. A
/// string payload is folded into the new message; any other payload is
/// resumed as-is after printing the job context to stderr (so the
/// original typed payload — e.g. from `panic_any` — is preserved for
/// callers that downcast it).
fn rethrow<T: fmt::Debug>(i: usize, job: &T, payload: Box<dyn std::any::Any + Send>) -> ! {
    let msg = payload
        .downcast_ref::<&'static str>()
        .copied()
        .map(str::to_owned)
        .or_else(|| payload.downcast_ref::<String>().cloned());
    match msg {
        Some(m) => panic!("campaign worker panicked on job {i} ({job:?}): {m}"),
        None => {
            eprintln!("campaign worker panicked on job {i} ({job:?}) with a non-string payload");
            resume_unwind(payload)
        }
    }
}

/// Where [`run_configs`] stops each configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// `run_to_verdict`: stop once the outcome and traces are final.
    /// The end state, and statistics read from it, are unspecified.
    Verdict,
    /// `run_until_cycles`: finish whole chunks, so end-state statistics
    /// such as [`ConfigRun::timing_violations`] cover the full run.
    WholeCycles,
}

/// How far [`run_configs`] runs every configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunLimits {
    /// Local cycles every SB must reach.
    pub cycles: u64,
    /// Simulated-time budget per configuration.
    pub budget: SimDuration,
    /// Where the run stops.
    pub stop: Stop,
}

/// One finished configuration of [`run_configs`], as its reader sees
/// it: a batched lane or a scalar system behind one read API. Nothing
/// is cloned per configuration; the reader takes what it needs.
pub struct ConfigRun<'a> {
    /// The run's outcome in the scalar shape (a batched lane is always
    /// `Ok`; only the event kernel reports errors).
    pub outcome: Result<RunOutcome, SimError>,
    engine: Engine<'a>,
}

enum Engine<'a> {
    Lane(&'a BatchedSystem, usize),
    Scalar(&'a AnySystem),
}

impl<'a> ConfigRun<'a> {
    /// The I/O trace of `sb`: borrowed from a scalar system, built for
    /// a batched lane (see [`BatchedSystem::io_trace`]).
    pub fn io_trace(&self, sb: SbId) -> Cow<'a, SbIoTrace> {
        match self.engine {
            Engine::Lane(batch, lane) => batch.io_trace(lane, sb),
            Engine::Scalar(sys) => Cow::Borrowed(sys.io_trace(sb)),
        }
    }

    /// The digest of `sb`'s I/O trace, without materialising a batched
    /// lane's rows.
    pub fn trace_digest(&self, sb: SbId) -> u64 {
        match self.engine {
            Engine::Lane(batch, lane) => batch.trace_digest(lane, sb),
            Engine::Scalar(sys) => sys.io_trace(sb).digest(),
        }
    }

    /// Setup-time violations taken by `sb` (see [`Stop::WholeCycles`]).
    pub fn timing_violations(&self, sb: SbId) -> u64 {
        match self.engine {
            Engine::Lane(batch, lane) => batch.timing_violations(lane, sb),
            Engine::Scalar(sys) => sys.timing_violations(sb),
        }
    }
}

// Cumulative counters of the batches [`run_configs`] forms, read by
// [`batch_metrics`].
static BATCHES_FORMED: AtomicU64 = AtomicU64::new(0);
static BATCH_LANES: AtomicU64 = AtomicU64::new(0);
static BATCH_GROUPS: AtomicU64 = AtomicU64::new(0);
static BATCH_SPLITS: AtomicU64 = AtomicU64::new(0);

/// `(batches formed, total lanes, total lockstep groups after runs,
/// total divergence splits)` over every batch [`run_configs`] has run
/// in this process; lanes / groups is the average lockstep sharing,
/// and groups minus splits the groups formed at build.
pub fn batch_metrics() -> (u64, u64, u64, u64) {
    (
        BATCHES_FORMED.load(Ordering::Relaxed),
        BATCH_LANES.load(Ordering::Relaxed),
        BATCH_GROUPS.load(Ordering::Relaxed),
        BATCH_SPLITS.load(Ordering::Relaxed),
    )
}

/// Runs `count` configurations, `make(i)` building the `i`-th, and
/// returns `read(i, run)` for each in configuration order. This is the
/// one place that chooses an engine: by the determinism property every
/// engine yields the same outcome and traces, so the choice only
/// changes cost.
///
/// * [`Backend::Compiled`] with two or more configurations runs
///   [`BatchedSystem`] shards: one per effective worker (see
///   [`effective_threads`]), at most [`DEFAULT_BATCH_LIMIT`]
///   configurations each. A shard the batched engine hands back (a
///   builder outside its envelope) runs its configurations one by one
///   on the scalar engine.
/// * Anything else runs each configuration on
///   [`SystemBuilder::build_backend`] through [`run_jobs_hooked`]; the
///   compiled → event fallback stays inside [`AnySystem`].
///
/// Cancellation is honoured between shards and between scalar
/// configurations, so a batched shard is the largest unit that runs
/// after the token trips; `hooks.progress` counts configurations.
///
/// # Errors
///
/// Returns [`Cancelled`] with the configurations that completed (in
/// configuration order) when the token trips before the last one is
/// started.
pub fn run_configs<R, M, F>(
    count: usize,
    make: M,
    backend: Backend,
    limits: RunLimits,
    threads: usize,
    hooks: RunHooks<'_>,
    read: F,
) -> Result<Vec<R>, Cancelled<R>>
where
    R: Send,
    M: Fn(usize) -> SystemBuilder + Sync,
    F: Fn(usize, ConfigRun<'_>) -> R + Sync,
{
    let run_scalar = |i: usize, builder: SystemBuilder| {
        let mut sys = builder.build_backend(backend);
        let outcome = match limits.stop {
            Stop::Verdict => sys.run_to_verdict(limits.cycles, limits.budget),
            Stop::WholeCycles => sys.run_until_cycles(limits.cycles, limits.budget),
        };
        let engine = Engine::Scalar(&sys);
        read(i, ConfigRun { outcome, engine })
    };
    if backend != Backend::Compiled || count < 2 {
        let configs: Vec<usize> = (0..count).collect();
        return run_jobs_hooked(&configs, threads, hooks, |_, &i| run_scalar(i, make(i)));
    }
    let shard = count
        .div_ceil(effective_threads(threads))
        .min(DEFAULT_BATCH_LIMIT);
    let shards: Vec<Range<usize>> = (0..count)
        .step_by(shard)
        .map(|start| start..count.min(start + shard))
        .collect();
    let done = AtomicUsize::new(0);
    let report = |n: usize| {
        let completed = done.fetch_add(n, Ordering::Relaxed) + n;
        if let Some(p) = hooks.progress {
            p(completed, count);
        }
    };
    let shard_hooks = RunHooks {
        progress: None,
        ..hooks
    };
    // Each shard yields `(configuration, result)` pairs, so a cancelled
    // campaign's partial state needs no index arithmetic.
    let runs = run_jobs_hooked(&shards, threads, shard_hooks, |_, range| {
        let mut runs: Vec<(usize, R)> = Vec::with_capacity(range.len());
        match BatchedSystem::build(range.clone().map(&make).collect()) {
            Ok(mut batch) => {
                let outcomes = match limits.stop {
                    Stop::Verdict => batch.run_to_verdict(limits.cycles, limits.budget),
                    Stop::WholeCycles => batch.run_until_cycles(limits.cycles, limits.budget),
                };
                BATCHES_FORMED.fetch_add(1, Ordering::Relaxed);
                BATCH_LANES.fetch_add(batch.lanes() as u64, Ordering::Relaxed);
                BATCH_GROUPS.fetch_add(batch.group_count() as u64, Ordering::Relaxed);
                BATCH_SPLITS.fetch_add(batch.splits() as u64, Ordering::Relaxed);
                for (lane, (i, outcome)) in range.clone().zip(outcomes).enumerate() {
                    let (outcome, engine) = (Ok(outcome), Engine::Lane(&batch, lane));
                    runs.push((i, read(i, ConfigRun { outcome, engine })));
                }
                report(runs.len());
            }
            Err(builders) => {
                for (i, b) in range.clone().zip(builders) {
                    if hooks.cancel.is_some_and(CancelToken::is_cancelled) {
                        break;
                    }
                    runs.push((i, run_scalar(i, b)));
                    report(1);
                }
            }
        }
        runs
    });
    let runs: Vec<(usize, R)> = match runs {
        Ok(shards) => shards.into_iter().flatten().collect(),
        Err(c) => c.completed.into_iter().flat_map(|(_, runs)| runs).collect(),
    };
    if runs.len() < count {
        return Err(Cancelled {
            completed: runs,
            total: count,
        });
    }
    Ok(runs.into_iter().map(|(_, r)| r).collect())
}

/// Wall-clock and kernel-throughput counters for a completed campaign.
///
/// Excluded from campaign *reports* by design: reports must stay
/// byte-identical across thread counts and machines, while these
/// counters exist precisely to track machine-dependent throughput
/// (BENCH_*.json trajectories).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CampaignStats {
    /// Simulation runs executed (including the nominal reference).
    pub runs: usize,
    /// Worker threads actually used — the requested count after the
    /// [`effective_threads`] available-parallelism cap (and the job
    /// count, when there are fewer jobs than workers).
    pub threads: usize,
    /// Wall-clock seconds for the whole campaign.
    pub wall_seconds: f64,
    /// Kernel events fired, summed over every run.
    pub events_fired: u64,
    /// Component wakes delivered, summed over every run.
    pub wakes: u64,
}

impl CampaignStats {
    /// Aggregate kernel throughput: events fired per wall-clock second.
    pub fn events_per_second(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        self.events_fired as f64 / self.wall_seconds
    }
}

impl fmt::Display for CampaignStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} runs on {} thread(s): {:.2}s wall, {} events ({:.2} M events/s), {} wakes",
            self.runs,
            self.threads,
            self.wall_seconds,
            self.events_fired,
            self.events_per_second() / 1e6,
            self.wakes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`run_jobs`] shape over the *uncapped* fan-out engine: the
    /// public entry clamps to the machine's core count, which on a
    /// one-core CI host would silently reduce every multi-thread test
    /// below to the sequential path.
    fn fanned<T, R, F>(jobs: &[T], threads: usize, worker: F) -> Vec<R>
    where
        T: Sync + fmt::Debug,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        run_jobs_fanned(jobs, threads, RunHooks::default(), worker)
            .unwrap_or_else(|_| unreachable!("no cancel token was installed"))
    }

    #[test]
    fn run_jobs_preserves_job_order() {
        let jobs: Vec<u64> = (0..257).collect();
        let f = |i: usize, j: &u64| -> u64 {
            // Deterministic result, jittered runtime so completion order
            // differs from job order.
            if i.is_multiple_of(7) {
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
            j.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(13)
        };
        let sequential = run_jobs(&jobs, 1, f);
        for threads in [2, 3, 8] {
            assert_eq!(fanned(&jobs, threads, f), sequential, "{threads} threads");
        }
    }

    #[test]
    fn run_jobs_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(run_jobs(&empty, 4, |_, x| *x).is_empty());
        assert_eq!(run_jobs(&[9u32], 4, |i, x| (i, *x)), vec![(0, 9)]);
    }

    #[test]
    fn worker_panic_reports_failing_job() {
        // The panic must carry the job's index and identity (the
        // config/seed in a real campaign), at every thread count.
        let jobs: Vec<u64> = (0..20).map(|i| 0x5EED ^ i).collect();
        for threads in [1, 4] {
            let jobs = &jobs;
            let caught = catch_unwind(AssertUnwindSafe(|| {
                fanned(jobs, threads, |i, j: &u64| {
                    if i == 13 {
                        panic!("bad seed {j:#x}");
                    }
                    *j
                })
            }))
            .expect_err("the worker panic must propagate");
            let msg = caught
                .downcast_ref::<String>()
                .expect("annotated panics carry a String payload");
            assert!(msg.contains("job 13"), "{threads} threads: {msg}");
            assert!(msg.contains("bad seed"), "{threads} threads: {msg}");
            assert!(
                msg.contains(&format!("{:?}", jobs[13])),
                "{threads} threads: {msg}"
            );
        }
    }

    #[test]
    fn stats_compute_throughput() {
        let s = CampaignStats {
            runs: 10,
            threads: 2,
            wall_seconds: 2.0,
            events_fired: 4_000_000,
            wakes: 7,
        };
        assert!((s.events_per_second() - 2e6).abs() < 1e-9);
        let text = s.to_string();
        assert!(text.contains("10 runs"));
        assert!(text.contains("2.00 M events/s"));
        assert_eq!(CampaignStats::default().events_per_second(), 0.0);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn effective_threads_caps_at_available_parallelism() {
        let cores = thread::available_parallelism().map_or(1, usize::from);
        assert_eq!(effective_threads(0), 1, "zero requests clamp to one");
        assert_eq!(effective_threads(1), 1);
        assert_eq!(effective_threads(usize::MAX), cores);
        assert!(effective_threads(cores + 7) <= cores);
    }

    #[test]
    fn cancellation_stops_promptly_and_reports_partial_state() {
        // The token trips from inside job 5's worker; jobs already
        // finished must come back (in job order), and nothing may start
        // after the token is honoured. Checked sequentially and fanned.
        for threads in [1, 4] {
            let jobs: Vec<u64> = (0..200).collect();
            let token = CancelToken::new();
            let hooks = RunHooks {
                cancel: Some(&token),
                progress: None,
            };
            let err = run_jobs_fanned(&jobs, threads, hooks, |i, j: &u64| {
                if i == 5 {
                    token.cancel();
                }
                *j * 2
            })
            .expect_err("the campaign must report cancellation");
            assert_eq!(err.total, 200, "{threads} threads");
            assert!(
                !err.completed.is_empty() && err.completed.len() < 200,
                "{threads} threads: {} completed",
                err.completed.len()
            );
            // Partial results are job-ordered and correct.
            for w in err.completed.windows(2) {
                assert!(w[0].0 < w[1].0, "{threads} threads: unsorted partial state");
            }
            for (i, r) in &err.completed {
                assert_eq!(*r, jobs[*i] * 2, "{threads} threads");
            }
            assert!(err.to_string().contains("of 200 jobs"));
            // At 1 thread the cut is exact: jobs 0..=5 ran, nothing else.
            if threads == 1 {
                assert_eq!(err.completed.len(), 6);
            }
        }
    }

    #[test]
    fn cancelling_after_completion_still_returns_ok_results() {
        let jobs: Vec<u64> = (0..8).collect();
        let token = CancelToken::new();
        let hooks = RunHooks {
            cancel: Some(&token),
            progress: None,
        };
        let last = jobs.len() - 1;
        let out = run_jobs_fanned(&jobs, 4, hooks, |i, j: &u64| {
            if i == last {
                token.cancel(); // too late: every job already claimed
            }
            *j
        });
        // Either every job completed (Ok) or a worker saw the token
        // between claims (Err with partial state); both are legal, but
        // a full result set must never be reported as cancelled.
        if let Err(c) = out {
            assert!(c.completed.len() < jobs.len());
        }
    }

    #[test]
    fn progress_reports_every_completion() {
        use std::sync::Mutex;
        for threads in [1, 3] {
            let jobs: Vec<u64> = (0..50).collect();
            let seen = Mutex::new(Vec::new());
            let progress = |done: usize, total: usize| {
                seen.lock().unwrap().push((done, total));
            };
            let hooks = RunHooks {
                cancel: None,
                progress: Some(&progress),
            };
            let out = run_jobs_fanned(&jobs, threads, hooks, |_, j: &u64| *j).expect("no token");
            assert_eq!(out, jobs);
            let mut seen = seen.into_inner().unwrap();
            seen.sort_unstable();
            // Every completion reported exactly once, against the right
            // total (arrival order is unspecified across threads).
            let want: Vec<(usize, usize)> = (1..=50).map(|d| (d, 50)).collect();
            assert_eq!(seen, want, "{threads} threads");
        }
    }

    #[test]
    fn st_threads_zero_clamps_to_one() {
        // One test fn owns all ST_THREADS mutation: parallel test
        // threads must not race on the process environment.
        let prev = std::env::var("ST_THREADS").ok();
        std::env::set_var("ST_THREADS", "0");
        assert_eq!(default_threads(), 1, "ST_THREADS=0 must clamp, not panic");
        std::env::set_var("ST_THREADS", "3");
        assert_eq!(default_threads(), 3);
        std::env::set_var("ST_THREADS", "banana");
        assert!(default_threads() >= 1, "garbage falls back to parallelism");
        // The shared helper exposes the same policy to other knobs.
        assert_eq!(threads_from_env("ST_THREADS"), None, "garbage is ignored");
        std::env::set_var("ST_THREADS", " 7 ");
        assert_eq!(threads_from_env("ST_THREADS"), Some(7), "whitespace ok");
        std::env::set_var("ST_THREADS", "0");
        assert_eq!(threads_from_env("ST_THREADS"), Some(1), "zero clamps");
        // Corner inputs all fall through to the caller's default rather
        // than panicking or half-parsing.
        std::env::set_var("ST_THREADS", "");
        assert_eq!(threads_from_env("ST_THREADS"), None, "empty is unset-ish");
        std::env::set_var("ST_THREADS", "   ");
        assert_eq!(threads_from_env("ST_THREADS"), None, "whitespace-only too");
        std::env::set_var("ST_THREADS", "-2");
        assert_eq!(threads_from_env("ST_THREADS"), None, "negative is garbage");
        std::env::set_var("ST_THREADS", "18446744073709551616");
        assert_eq!(threads_from_env("ST_THREADS"), None, "overflow is garbage");
        std::env::set_var("ST_THREADS", "3.5");
        assert_eq!(threads_from_env("ST_THREADS"), None, "floats are garbage");
        match prev {
            Some(v) => std::env::set_var("ST_THREADS", v),
            None => std::env::remove_var("ST_THREADS"),
        }
    }
}
