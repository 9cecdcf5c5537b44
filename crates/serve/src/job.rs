//! The service's job model: plain-data requests over the engines built
//! in PRs 1–4, canonical byte encodings for content addressing, and the
//! executor the worker pool runs.
//!
//! Every request kind is a *pure function* of its fields — that is the
//! paper's determinism invariant surfacing as a systems property. A
//! [`JobRequest`]'s canonical bytes therefore content-address its
//! result: equal bytes ⇒ equal result bytes, on any machine, at any
//! thread count, on either backend where the request pins one.
//!
//! Three kinds are served:
//!
//! * **sim** — a seed campaign over a named scenario: one simulation
//!   per seed through [`synchro_tokens::campaign::run_jobs`], each
//!   returning its outcome and every SB's canonical I/O trace;
//! * **shmoo** — the §4.2 frequency sweep via
//!   [`st_testkit::shmoo_any_hooked`];
//! * **chaos** — a differential fault-injection campaign via
//!   [`st_testkit::run_chaos_campaign_hooked`].

use st_sim::time::SimDuration;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use synchro_tokens::scenarios::{self, chain_spec, e1_spec, pingpong_spec, producer_consumer_spec};
use synchro_tokens::system::{RunOutcome, SystemBuilder};
use synchro_tokens::{
    run_jobs_hooked, AnySystem, Backend, BatchedSystem, RunHooks, SbId, SystemSpec,
};

/// Magic prefix of canonical request bytes.
pub const REQUEST_MAGIC: &[u8; 4] = b"STJR";
/// Magic prefix of canonical result bytes.
pub const RESULT_MAGIC: &[u8; 4] = b"STJQ";
/// Version byte shared by both encodings.
pub const WIRE_VERSION: u8 = 1;

/// A named, parameterizable system the service can build.
///
/// Requests name scenarios instead of shipping arbitrary specs because
/// a spec alone does not determine behaviour — the synchronous blocks'
/// *logic* is attached at build time and is not serializable. Each
/// scenario pairs a spec from [`synchro_tokens::scenarios`] with the
/// deterministic mixer workload used by the chaos campaigns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// [`producer_consumer_spec`]: the smallest interesting system.
    ProducerConsumer,
    /// [`pingpong_spec`]: the dense bidirectional reference workload.
    PingPong,
    /// [`e1_spec`]: the paper's §5 three-SB / six-FIFO platform.
    E1,
    /// [`chain_spec`]: a linear pipeline of `n` SBs (2..=64 here).
    Chain(u32),
}

impl Scenario {
    /// The scenario's spec.
    pub fn spec(self) -> SystemSpec {
        match self {
            Scenario::ProducerConsumer => producer_consumer_spec(),
            Scenario::PingPong => pingpong_spec(),
            Scenario::E1 => e1_spec(),
            Scenario::Chain(n) => chain_spec(n as usize),
        }
    }

    /// Wire name (JSON) of the scenario.
    pub fn name(self) -> String {
        match self {
            Scenario::ProducerConsumer => "producer_consumer".to_owned(),
            Scenario::PingPong => "pingpong".to_owned(),
            Scenario::E1 => "e1".to_owned(),
            Scenario::Chain(n) => format!("chain{n}"),
        }
    }

    /// Parses the wire name.
    pub fn parse(name: &str) -> Option<Scenario> {
        match name {
            "producer_consumer" => Some(Scenario::ProducerConsumer),
            "pingpong" => Some(Scenario::PingPong),
            "e1" => Some(Scenario::E1),
            _ => {
                let n: u32 = name.strip_prefix("chain")?.parse().ok()?;
                (2..=64).contains(&n).then_some(Scenario::Chain(n))
            }
        }
    }

    fn encode(self, out: &mut Vec<u8>) {
        match self {
            Scenario::ProducerConsumer => out.push(0),
            Scenario::PingPong => out.push(1),
            Scenario::E1 => out.push(2),
            Scenario::Chain(n) => {
                out.push(3);
                out.extend_from_slice(&n.to_le_bytes());
            }
        }
    }
}

fn backend_tag(b: Backend) -> u8 {
    match b {
        Backend::Event => 0,
        Backend::Compiled => 1,
    }
}

/// Parses a wire backend name.
pub fn backend_from_name(name: &str) -> Option<Backend> {
    match name {
        "event" => Some(Backend::Event),
        "compiled" => Some(Backend::Compiled),
        _ => None,
    }
}

/// Wire name of a backend.
pub fn backend_name(b: Backend) -> &'static str {
    match b {
        Backend::Event => "event",
        Backend::Compiled => "compiled",
    }
}

/// A seed campaign: one independent simulation per seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRequest {
    /// System under simulation.
    pub scenario: Scenario,
    /// Engine to run on. Both are byte-identical; the field exists so
    /// differential clients can pin one and compare served bytes.
    pub backend: Backend,
    /// One simulation per seed (the builder seed and workload salt).
    pub seeds: Vec<u64>,
    /// Local cycles every SB must reach.
    pub cycles: u64,
    /// I/O trace capture limit per SB, in cycles.
    pub trace_cycles: u32,
    /// Simulated-time budget per run, in femtoseconds.
    pub budget_fs: u64,
}

/// A §4.2 frequency shmoo over one SB.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShmooRequest {
    /// System under sweep.
    pub scenario: Scenario,
    /// Engine to run on.
    pub backend: Backend,
    /// The SB whose clock period is swept.
    pub sb: u32,
    /// Candidate periods, in femtoseconds, in sweep order.
    pub periods_fs: Vec<u64>,
    /// Local cycles per point.
    pub cycles: u64,
}

/// A differential fault-injection campaign (seed × 3 fault classes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosRequest {
    /// System under attack.
    pub scenario: Scenario,
    /// Number of plan seeds; the campaign runs `3 × seeds` configs.
    pub seeds: u64,
    /// Local cycles every run must reach.
    pub cycles: u64,
    /// Simulated-time budget per run, in femtoseconds.
    pub budget_fs: u64,
}

/// A complete, self-contained unit of service work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobRequest {
    /// Seed campaign.
    Sim(SimRequest),
    /// Frequency shmoo.
    Shmoo(ShmooRequest),
    /// Chaos campaign.
    Chaos(ChaosRequest),
}

impl JobRequest {
    /// The canonical byte form — the content that is addressed.
    ///
    /// Fixed little-endian layout, pure function of the request value;
    /// [`ContentKey::of`](crate::hash::ContentKey::of) over these bytes
    /// is the cache key.
    pub fn to_canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(REQUEST_MAGIC);
        out.push(WIRE_VERSION);
        match self {
            JobRequest::Sim(r) => {
                out.push(0);
                r.scenario.encode(&mut out);
                out.push(backend_tag(r.backend));
                out.extend_from_slice(&(r.seeds.len() as u64).to_le_bytes());
                for s in &r.seeds {
                    out.extend_from_slice(&s.to_le_bytes());
                }
                out.extend_from_slice(&r.cycles.to_le_bytes());
                out.extend_from_slice(&r.trace_cycles.to_le_bytes());
                out.extend_from_slice(&r.budget_fs.to_le_bytes());
            }
            JobRequest::Shmoo(r) => {
                out.push(1);
                r.scenario.encode(&mut out);
                out.push(backend_tag(r.backend));
                out.extend_from_slice(&r.sb.to_le_bytes());
                out.extend_from_slice(&(r.periods_fs.len() as u64).to_le_bytes());
                for p in &r.periods_fs {
                    out.extend_from_slice(&p.to_le_bytes());
                }
                out.extend_from_slice(&r.cycles.to_le_bytes());
            }
            JobRequest::Chaos(r) => {
                out.push(2);
                r.scenario.encode(&mut out);
                out.extend_from_slice(&r.seeds.to_le_bytes());
                out.extend_from_slice(&r.cycles.to_le_bytes());
                out.extend_from_slice(&r.budget_fs.to_le_bytes());
            }
        }
        out
    }

    /// The conformance requirement IDs (see `conformance/requirements.toml`)
    /// a successful run of this request bears witness to. Every job kind
    /// exercises the determinism invariant and the content-addressed
    /// campaign contract; multi-seed compiled sims additionally take the
    /// batched lane path, and chaos campaigns replay fault plans.
    pub fn witnessed_ids(&self) -> Vec<&'static str> {
        let mut ids = vec!["ST-DET-001", "ST-CAMP-005"];
        match self {
            JobRequest::Sim(r) => {
                if r.backend == Backend::Compiled && r.seeds.len() >= 2 {
                    ids.push("ST-EQ-003");
                }
            }
            JobRequest::Shmoo(_) => {}
            JobRequest::Chaos(_) => ids.push("ST-CHAOS-006"),
        }
        ids
    }

    /// Builds a request from its JSON wire form (the `/submit` body).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first missing or
    /// ill-typed field.
    pub fn from_json(v: &crate::json::Json) -> Result<JobRequest, String> {
        use crate::json::Json;
        let field = |key: &str| -> Result<&Json, String> {
            v.get(key).ok_or_else(|| format!("missing field {key:?}"))
        };
        let u64_field = |key: &str| -> Result<u64, String> {
            field(key)?
                .as_u64()
                .ok_or_else(|| format!("field {key:?} must be a non-negative integer"))
        };
        let scenario = || -> Result<Scenario, String> {
            let name = field("scenario")?
                .as_str()
                .ok_or("field \"scenario\" must be a string")?;
            Scenario::parse(name).ok_or_else(|| format!("unknown scenario {name:?}"))
        };
        let backend = || -> Result<Backend, String> {
            let name = field("backend")?
                .as_str()
                .ok_or("field \"backend\" must be a string")?;
            backend_from_name(name).ok_or_else(|| format!("unknown backend {name:?}"))
        };
        let u64_list = |key: &str| -> Result<Vec<u64>, String> {
            field(key)?
                .as_arr()
                .ok_or_else(|| format!("field {key:?} must be an array"))?
                .iter()
                .map(|x| {
                    x.as_u64()
                        .ok_or_else(|| format!("field {key:?} must hold integers"))
                })
                .collect()
        };
        let kind = field("type")?
            .as_str()
            .ok_or("field \"type\" must be a string")?;
        match kind {
            "sim" => {
                let seeds = u64_list("seeds")?;
                if seeds.is_empty() || seeds.len() > 100_000 {
                    return Err("seeds must hold 1..=100000 entries".to_owned());
                }
                Ok(JobRequest::Sim(SimRequest {
                    scenario: scenario()?,
                    backend: backend()?,
                    seeds,
                    cycles: u64_field("cycles")?,
                    trace_cycles: u64_field("trace_cycles")?
                        .try_into()
                        .map_err(|_| "trace_cycles out of range".to_owned())?,
                    budget_fs: u64_field("budget_fs")?,
                }))
            }
            "shmoo" => {
                let periods_fs = u64_list("periods_fs")?;
                if periods_fs.is_empty() || periods_fs.len() > 100_000 {
                    return Err("periods_fs must hold 1..=100000 entries".to_owned());
                }
                Ok(JobRequest::Shmoo(ShmooRequest {
                    scenario: scenario()?,
                    backend: backend()?,
                    sb: u64_field("sb")?
                        .try_into()
                        .map_err(|_| "sb out of range".to_owned())?,
                    periods_fs,
                    cycles: u64_field("cycles")?,
                }))
            }
            "chaos" => {
                let seeds = u64_field("seeds")?;
                if seeds == 0 || seeds > 100_000 {
                    return Err("seeds must be 1..=100000".to_owned());
                }
                Ok(JobRequest::Chaos(ChaosRequest {
                    scenario: scenario()?,
                    seeds,
                    cycles: u64_field("cycles")?,
                    budget_fs: u64_field("budget_fs")?,
                }))
            }
            other => Err(format!("unknown job type {other:?}")),
        }
    }

    /// The JSON wire form (what a CLI submits).
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        match self {
            JobRequest::Sim(r) => Json::obj([
                ("type", Json::str("sim")),
                ("scenario", Json::Str(r.scenario.name())),
                ("backend", Json::str(backend_name(r.backend))),
                (
                    "seeds",
                    Json::Arr(r.seeds.iter().map(|&s| Json::UInt(s)).collect()),
                ),
                ("cycles", Json::UInt(r.cycles)),
                ("trace_cycles", Json::UInt(r.trace_cycles.into())),
                ("budget_fs", Json::UInt(r.budget_fs)),
            ]),
            JobRequest::Shmoo(r) => Json::obj([
                ("type", Json::str("shmoo")),
                ("scenario", Json::Str(r.scenario.name())),
                ("backend", Json::str(backend_name(r.backend))),
                ("sb", Json::UInt(r.sb.into())),
                (
                    "periods_fs",
                    Json::Arr(r.periods_fs.iter().map(|&p| Json::UInt(p)).collect()),
                ),
                ("cycles", Json::UInt(r.cycles)),
            ]),
            JobRequest::Chaos(r) => Json::obj([
                ("type", Json::str("chaos")),
                ("scenario", Json::Str(r.scenario.name())),
                ("seeds", Json::UInt(r.seeds)),
                ("cycles", Json::UInt(r.cycles)),
                ("budget_fs", Json::UInt(r.budget_fs)),
            ]),
        }
    }

    /// Validates semantic bounds the wire form cannot express.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated bound.
    pub fn validate(&self) -> Result<(), String> {
        let (scenario, cycles) = match self {
            JobRequest::Sim(r) => (r.scenario, r.cycles),
            JobRequest::Shmoo(r) => {
                let n_sbs = r.scenario.spec().sbs.len();
                if (r.sb as usize) >= n_sbs {
                    return Err(format!(
                        "sb {} out of range for {} ({n_sbs} SBs)",
                        r.sb,
                        r.scenario.name()
                    ));
                }
                if r.periods_fs.contains(&0) {
                    return Err("periods_fs must be positive".to_owned());
                }
                (r.scenario, r.cycles)
            }
            JobRequest::Chaos(r) => (r.scenario, r.cycles),
        };
        let _ = scenario;
        if cycles == 0 || cycles > 1_000_000 {
            return Err("cycles must be 1..=1000000".to_owned());
        }
        Ok(())
    }
}

/// The outcome of one simulation run, in wire form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRunResult {
    /// The run's seed.
    pub seed: u64,
    /// `RunOutcome` label (`reached` / `deadlock` / `timed-out`) or
    /// `error: …` for a kernel error.
    pub outcome: String,
    /// Canonical I/O trace bytes, one per SB, in SB order.
    pub traces: Vec<Vec<u8>>,
}

/// One shmoo point, in wire form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShmooPointResult {
    /// The candidate period, femtoseconds.
    pub period_fs: u64,
    /// Whether every SB's trace matched the golden run.
    pub pass: bool,
    /// Setup-time violations the swept SB took.
    pub violations: u64,
}

/// One chaos configuration's verdict, in wire form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosRunResult {
    /// Plan seed.
    pub seed: u64,
    /// Fault class name (`analog` / `protocol` / `state`).
    pub class: String,
    /// `(backend kind, classified outcome)` rendered per backend,
    /// in `[event, compiled]` order.
    pub outcomes: Vec<(String, String)>,
    /// Oracle violations (empty on a conforming run).
    pub violations: Vec<String>,
}

/// A completed job's payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobResult {
    /// Per-seed outcomes, in seed order.
    Sim(Vec<SimRunResult>),
    /// Sweep points, in sweep order.
    Shmoo(Vec<ShmooPointResult>),
    /// Per-configuration verdicts, in job order.
    Chaos(Vec<ChaosRunResult>),
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u64).to_le_bytes());
    out.extend_from_slice(b);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

impl JobResult {
    /// The canonical byte form served by `/result/<id>` — a pure
    /// function of the result value, so a served body is byte-identical
    /// to an encoding of the same job computed locally.
    pub fn to_canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(RESULT_MAGIC);
        out.push(WIRE_VERSION);
        match self {
            JobResult::Sim(runs) => {
                out.push(0);
                out.extend_from_slice(&(runs.len() as u64).to_le_bytes());
                for run in runs {
                    out.extend_from_slice(&run.seed.to_le_bytes());
                    put_str(&mut out, &run.outcome);
                    out.extend_from_slice(&(run.traces.len() as u64).to_le_bytes());
                    for t in &run.traces {
                        put_bytes(&mut out, t);
                    }
                }
            }
            JobResult::Shmoo(points) => {
                out.push(1);
                out.extend_from_slice(&(points.len() as u64).to_le_bytes());
                for p in points {
                    out.extend_from_slice(&p.period_fs.to_le_bytes());
                    out.push(u8::from(p.pass));
                    out.extend_from_slice(&p.violations.to_le_bytes());
                }
            }
            JobResult::Chaos(runs) => {
                out.push(2);
                out.extend_from_slice(&(runs.len() as u64).to_le_bytes());
                for run in runs {
                    out.extend_from_slice(&run.seed.to_le_bytes());
                    put_str(&mut out, &run.class);
                    out.extend_from_slice(&(run.outcomes.len() as u64).to_le_bytes());
                    for (kind, outcome) in &run.outcomes {
                        put_str(&mut out, kind);
                        put_str(&mut out, outcome);
                    }
                    out.extend_from_slice(&(run.violations.len() as u64).to_le_bytes());
                    for v in &run.violations {
                        put_str(&mut out, v);
                    }
                }
            }
        }
        out
    }
}

/// The executor was cancelled before finishing (token or deadline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecCancelled;

impl fmt::Display for ExecCancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job cancelled before completion")
    }
}

impl std::error::Error for ExecCancelled {}

/// The deterministic mixer workload on `spec`, salted exactly like the
/// chaos campaigns: different seeds produce different golden traces.
fn mixer_builder(spec: &SystemSpec, seed: u64, trace_cycles: usize) -> SystemBuilder {
    let n = spec.sbs.len();
    let mut b = SystemBuilder::new(spec.clone())
        .expect("scenario specs are valid")
        .with_seed(seed)
        .with_trace_limit(trace_cycles);
    for i in 0..n {
        let salt = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x1000 * i as u64);
        b = b.with_logic(SbId(i), scenarios::MixerLogic::new(salt));
    }
    b
}

// Cumulative batched-execution counters, surfaced on `/metrics` as
// batch-occupancy gauges (lanes / groups = average lockstep sharing).
static BATCHES_FORMED: AtomicU64 = AtomicU64::new(0);
static BATCH_LANES: AtomicU64 = AtomicU64::new(0);
static BATCH_GROUPS: AtomicU64 = AtomicU64::new(0);

/// Cumulative batched-execution counters since process start:
/// `(batches formed, total lanes, total lockstep groups after runs)`.
pub fn batch_metrics() -> (u64, u64, u64) {
    (
        BATCHES_FORMED.load(Ordering::Relaxed),
        BATCH_LANES.load(Ordering::Relaxed),
        BATCH_GROUPS.load(Ordering::Relaxed),
    )
}

/// Attempts to run a whole [`SimRequest`] through the batched
/// lane-parallel engine: all seeds share the scenario spec, so they
/// lower into lockstep groups and the event-loop cost is paid once per
/// group instead of once per seed.
///
/// The seed list is sharded so up to `threads` workers run whole
/// lockstep groups concurrently (via
/// [`synchro_tokens::run_jobs_hooked`], which also caps the fan-out at
/// the machine's parallelism). Shards never exceed the `ST_BATCH` lane
/// cap, so sharding costs no group sharing, and one shard — not the
/// whole request — is the indivisible unit of batched work:
/// cancellation is honoured between shards and progress fires per
/// completed seed.
///
/// Returns `Ok(None)` when the request should take the scalar path —
/// an `event`-backend pin (the client asked for that engine
/// specifically), a single seed, `ST_BATCH=1`, or builders outside the
/// batched envelope. Results are byte-identical either way (the
/// differential suite in `synchro-tokens` proves per-lane identity),
/// so the choice is invisible on the wire.
///
/// # Errors
///
/// [`ExecCancelled`] when the token trips before the last shard is
/// claimed; completed shards are discarded.
fn run_sim_batched(
    r: &SimRequest,
    threads: usize,
    hooks: &RunHooks<'_>,
) -> Result<Option<Vec<SimRunResult>>, ExecCancelled> {
    let limit = synchro_tokens::batch_limit_from_env();
    if r.backend != Backend::Compiled || r.seeds.len() < 2 || limit <= 1 {
        return Ok(None);
    }
    let spec = r.scenario.spec();
    // The envelope is a property of the spec and trace limit, shared
    // by every seed: one probe builder decides for the whole request.
    if !BatchedSystem::supports(&mixer_builder(&spec, r.seeds[0], r.trace_cycles as usize)) {
        return Ok(None);
    }
    // Shard by the thread count that will actually run (requested,
    // capped at the machine's parallelism): sizing by the raw request
    // would fragment lane sharing with no parallelism to show for it.
    let workers = synchro_tokens::effective_threads(threads);
    let shard = r.seeds.len().div_ceil(workers).clamp(1, limit);
    let shards: Vec<&[u64]> = r.seeds.chunks(shard).collect();
    let total = r.seeds.len();
    let done = AtomicUsize::new(0);
    let lane_done = |n: usize| {
        let completed = done.fetch_add(n, Ordering::Relaxed) + n;
        if let Some(p) = hooks.progress {
            p(completed.min(total), total);
        }
    };
    // Per-seed progress is reported from inside the shard workers, so
    // the fan-out itself runs with progress disabled (its unit is the
    // shard, not the seed).
    let shard_hooks = RunHooks {
        cancel: hooks.cancel,
        progress: None,
    };
    let runs = run_jobs_hooked(&shards, threads, shard_hooks, |_, seeds: &&[u64]| {
        let builders: Vec<SystemBuilder> = seeds
            .iter()
            .map(|&seed| mixer_builder(&spec, seed, r.trace_cycles as usize))
            .collect();
        let Ok(mut batch) = BatchedSystem::build(builders) else {
            // Unreachable given the probe above, but a scalar fallback
            // keeps the result correct if the envelope ever drifts.
            let runs: Vec<SimRunResult> = seeds.iter().map(|&seed| run_sim_once(r, seed)).collect();
            lane_done(runs.len());
            return runs;
        };
        let outcomes = batch.run_to_verdict(r.cycles, SimDuration::fs(r.budget_fs));
        BATCHES_FORMED.fetch_add(1, Ordering::Relaxed);
        BATCH_LANES.fetch_add(batch.lanes() as u64, Ordering::Relaxed);
        BATCH_GROUPS.fetch_add(batch.group_count() as u64, Ordering::Relaxed);
        let runs: Vec<SimRunResult> = seeds
            .iter()
            .zip(outcomes)
            .enumerate()
            .map(|(lane, (&seed, outcome))| {
                let outcome = match outcome {
                    RunOutcome::Reached => "reached".to_owned(),
                    RunOutcome::Deadlock { stopped } => {
                        let names: Vec<String> = stopped.iter().map(ToString::to_string).collect();
                        format!("deadlock: {}", names.join(","))
                    }
                    RunOutcome::TimedOut => "timed-out".to_owned(),
                };
                let traces = (0..spec.sbs.len())
                    .map(|i| batch.io_trace(lane, SbId(i)).to_canonical_bytes())
                    .collect();
                SimRunResult {
                    seed,
                    outcome,
                    traces,
                }
            })
            .collect();
        lane_done(runs.len());
        runs
    })
    .map_err(|_| ExecCancelled)?;
    Ok(Some(runs.into_iter().flatten().collect()))
}

/// Runs one simulation of a [`SimRequest`] at `seed`.
///
/// Public so clients (tests, the smoke script) can reproduce a served
/// result *directly*: fan seeds through
/// [`synchro_tokens::campaign::run_jobs`] with this worker and encode
/// via [`JobResult::to_canonical_bytes`] — the service must serve the
/// same bytes.
pub fn run_sim_once(req: &SimRequest, seed: u64) -> SimRunResult {
    let spec = req.scenario.spec();
    let mut sys: AnySystem =
        mixer_builder(&spec, seed, req.trace_cycles as usize).build_backend(req.backend);
    let outcome = match sys.run_to_verdict(req.cycles, SimDuration::fs(req.budget_fs)) {
        Ok(RunOutcome::Reached) => "reached".to_owned(),
        Ok(RunOutcome::Deadlock { stopped }) => {
            let names: Vec<String> = stopped.iter().map(ToString::to_string).collect();
            format!("deadlock: {}", names.join(","))
        }
        Ok(RunOutcome::TimedOut) => "timed-out".to_owned(),
        Err(e) => format!("error: {e}"),
    };
    let traces = (0..spec.sbs.len())
        .map(|i| sys.io_trace(SbId(i)).to_canonical_bytes())
        .collect();
    SimRunResult {
        seed,
        outcome,
        traces,
    }
}

/// Executes a request through the existing campaign entry points,
/// honouring `hooks` (cancellation between sub-jobs, progress per
/// completed sub-job).
///
/// # Errors
///
/// [`ExecCancelled`] when the token trips first; partial sub-results
/// are discarded (a cancelled job has no servable result).
pub fn execute(
    req: &JobRequest,
    threads: usize,
    hooks: RunHooks<'_>,
) -> Result<JobResult, ExecCancelled> {
    match req {
        JobRequest::Sim(r) => {
            if let Some(runs) = run_sim_batched(r, threads, &hooks)? {
                return Ok(JobResult::Sim(runs));
            }
            let runs = run_jobs_hooked(&r.seeds, threads, hooks, |_, &seed| run_sim_once(r, seed))
                .map_err(|_| ExecCancelled)?;
            Ok(JobResult::Sim(runs))
        }
        JobRequest::Shmoo(r) => {
            let spec = r.scenario.spec();
            let periods: Vec<SimDuration> =
                r.periods_fs.iter().map(|&p| SimDuration::fs(p)).collect();
            let backend = r.backend;
            let result = st_testkit::shmoo_any_hooked(
                &spec,
                SbId(r.sb as usize),
                &periods,
                r.cycles,
                &move |s, seed| mixer_builder(&s, seed, 0).build_backend(backend),
                threads,
                hooks,
            )
            .map_err(|_| ExecCancelled)?;
            Ok(JobResult::Shmoo(
                result
                    .points
                    .iter()
                    .map(|p| ShmooPointResult {
                        period_fs: p.period.as_fs(),
                        pass: p.pass,
                        violations: p.violations,
                    })
                    .collect(),
            ))
        }
        JobRequest::Chaos(r) => {
            let spec = r.scenario.spec();
            let jobs = st_testkit::chaos_jobs(r.seeds);
            let report = st_testkit::run_chaos_campaign_hooked(
                &spec,
                &jobs,
                r.cycles,
                SimDuration::fs(r.budget_fs),
                threads,
                hooks,
            )
            .map_err(|_| ExecCancelled)?;
            Ok(JobResult::Chaos(
                report
                    .runs
                    .iter()
                    .map(|run| ChaosRunResult {
                        seed: run.job.seed,
                        class: run.job.class.to_string(),
                        outcomes: run
                            .outcomes
                            .iter()
                            .map(|(kind, outcome)| (format!("{kind:?}"), outcome.to_string()))
                            .collect(),
                        violations: run.violations.clone(),
                    })
                    .collect(),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::ContentKey;

    fn tiny_sim(backend: Backend) -> JobRequest {
        JobRequest::Sim(SimRequest {
            scenario: Scenario::PingPong,
            backend,
            seeds: vec![1, 2],
            cycles: 30,
            trace_cycles: 30,
            budget_fs: SimDuration::us(2000).as_fs(),
        })
    }

    #[test]
    fn canonical_bytes_are_stable_and_field_sensitive() {
        let a = tiny_sim(Backend::Event);
        assert_eq!(a.to_canonical_bytes(), a.clone().to_canonical_bytes());
        let b = tiny_sim(Backend::Compiled);
        assert_ne!(a.to_canonical_bytes(), b.to_canonical_bytes());
        let JobRequest::Sim(mut r) = a.clone() else {
            unreachable!()
        };
        r.seeds.push(3);
        assert_ne!(
            JobRequest::Sim(r).to_canonical_bytes(),
            a.to_canonical_bytes()
        );
        // The content key follows the bytes.
        assert_ne!(
            ContentKey::of(&a.to_canonical_bytes()),
            ContentKey::of(&b.to_canonical_bytes())
        );
    }

    #[test]
    fn json_round_trips_every_kind() {
        let reqs = [
            tiny_sim(Backend::Compiled),
            JobRequest::Shmoo(ShmooRequest {
                scenario: Scenario::ProducerConsumer,
                backend: Backend::Event,
                sb: 0,
                periods_fs: vec![10_000_000, 9_000_000],
                cycles: 40,
            }),
            JobRequest::Chaos(ChaosRequest {
                scenario: Scenario::PingPong,
                seeds: 2,
                cycles: 40,
                budget_fs: SimDuration::us(2000).as_fs(),
            }),
        ];
        for req in reqs {
            let text = req.to_json().encode();
            let parsed = JobRequest::from_json(&crate::json::Json::parse(&text).unwrap()).unwrap();
            assert_eq!(parsed, req, "{text}");
            parsed.validate().unwrap();
        }
    }

    #[test]
    fn scenario_names_round_trip() {
        for s in [
            Scenario::ProducerConsumer,
            Scenario::PingPong,
            Scenario::E1,
            Scenario::Chain(5),
        ] {
            assert_eq!(Scenario::parse(&s.name()), Some(s));
        }
        assert_eq!(Scenario::parse("chain1"), None, "chain needs >= 2 SBs");
        assert_eq!(Scenario::parse("nonsense"), None);
    }

    #[test]
    fn malformed_requests_are_rejected_with_field_names() {
        let bad = crate::json::Json::parse(
            "{\"type\":\"sim\",\"scenario\":\"pingpong\",\"backend\":\"event\",\"seeds\":[],\"cycles\":10,\"trace_cycles\":10,\"budget_fs\":1}",
        )
        .unwrap();
        assert!(JobRequest::from_json(&bad).unwrap_err().contains("seeds"));
        let bad = crate::json::Json::parse("{\"type\":\"warp\"}").unwrap();
        assert!(JobRequest::from_json(&bad).unwrap_err().contains("warp"));
        let bad = JobRequest::Shmoo(ShmooRequest {
            scenario: Scenario::PingPong,
            backend: Backend::Event,
            sb: 9,
            periods_fs: vec![1],
            cycles: 10,
        });
        assert!(bad.validate().unwrap_err().contains("sb 9"));
    }

    #[test]
    fn executor_result_matches_direct_run_jobs() {
        // The byte-identity contract, service-free: executing a sim
        // request equals fanning its seeds through run_jobs directly.
        let JobRequest::Sim(r) = tiny_sim(Backend::Event) else {
            unreachable!()
        };
        let direct = JobResult::Sim(synchro_tokens::run_jobs(&r.seeds, 1, |_, &seed| {
            run_sim_once(&r, seed)
        }))
        .to_canonical_bytes();
        let executed = execute(&JobRequest::Sim(r), 2, RunHooks::default())
            .unwrap()
            .to_canonical_bytes();
        assert_eq!(executed, direct);
    }

    #[test]
    fn batched_sim_serves_the_scalar_bytes() {
        // Compiled multi-seed requests take the batched path; the wire
        // bytes must equal the scalar per-seed computation exactly.
        let JobRequest::Sim(r) = tiny_sim(Backend::Compiled) else {
            unreachable!()
        };
        let direct = JobResult::Sim(r.seeds.iter().map(|&s| run_sim_once(&r, s)).collect())
            .to_canonical_bytes();
        let executed = execute(&JobRequest::Sim(r), 1, RunHooks::default())
            .unwrap()
            .to_canonical_bytes();
        assert_eq!(executed, direct);
        let (batches, lanes, groups) = batch_metrics();
        assert!(batches >= 1, "the batched path must have been taken");
        assert!(lanes >= groups);
    }

    #[test]
    fn execute_honours_cancellation() {
        let token = synchro_tokens::CancelToken::new();
        token.cancel();
        let hooks = RunHooks {
            cancel: Some(&token),
            progress: None,
        };
        assert_eq!(
            execute(&tiny_sim(Backend::Event), 1, hooks),
            Err(ExecCancelled)
        );
        // The batched compiled path checks the same token between
        // shards; a pre-tripped token refuses the first shard claim.
        assert_eq!(
            execute(&tiny_sim(Backend::Compiled), 1, hooks),
            Err(ExecCancelled)
        );
    }

    #[test]
    fn batched_sim_shards_across_threads_and_serves_scalar_bytes() {
        // Nine seeds over three requested workers shard into chunks
        // sized by the effective thread count (three on a 3+-core
        // machine, one shard of nine on a single core); either way the
        // merged wire bytes must equal the scalar per-seed computation
        // and per-seed progress must cover every seed exactly once.
        let r = SimRequest {
            scenario: Scenario::PingPong,
            backend: Backend::Compiled,
            seeds: (1..=9).collect(),
            cycles: 30,
            trace_cycles: 30,
            budget_fs: SimDuration::us(2000).as_fs(),
        };
        let direct = JobResult::Sim(r.seeds.iter().map(|&s| run_sim_once(&r, s)).collect())
            .to_canonical_bytes();
        let seen = std::sync::Mutex::new(Vec::new());
        let progress = |done: usize, total: usize| {
            seen.lock().unwrap().push((done, total));
        };
        let hooks = RunHooks {
            cancel: None,
            progress: Some(&progress),
        };
        let executed = execute(&JobRequest::Sim(r), 3, hooks)
            .unwrap()
            .to_canonical_bytes();
        assert_eq!(executed, direct);
        let reports = seen.into_inner().unwrap();
        assert_eq!(
            reports.iter().map(|&(_, t)| t).max(),
            Some(9),
            "progress totals must count seeds, not shards"
        );
        assert_eq!(
            reports.iter().map(|&(d, _)| d).max(),
            Some(9),
            "every seed must be reported completed"
        );
    }
}
