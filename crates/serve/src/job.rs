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
//!   per seed through [`synchro_tokens::campaign::run_configs`], each
//!   returning its outcome and every SB's canonical I/O trace;
//! * **shmoo** — the §4.2 frequency sweep via
//!   [`st_testkit::shmoo_any_hooked`];
//! * **chaos** — a differential fault-injection campaign via
//!   [`st_testkit::run_chaos_campaign_hooked`].

use st_sim::canon::{Canon, Enc};
use st_sim::time::SimDuration;
use st_sim::SimError;
use std::fmt;
use synchro_tokens::scenarios::{
    chain_spec, e1_spec, mixer_builder, pingpong_spec, producer_consumer_spec,
};
use synchro_tokens::system::RunOutcome;
use synchro_tokens::{
    run_configs, AnySystem, Backend, RunHooks, RunLimits, SbId, Stop, SystemSpec,
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

    fn encode(self, e: &mut Enc) {
        match self {
            Scenario::ProducerConsumer => e.u8(0),
            Scenario::PingPong => e.u8(1),
            Scenario::E1 => e.u8(2),
            Scenario::Chain(n) => (3u8, n).put(e),
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
        let mut e = Enc::default();
        e.raw(REQUEST_MAGIC);
        e.u8(WIRE_VERSION);
        match self {
            JobRequest::Sim(r) => {
                e.u8(0);
                r.scenario.encode(&mut e);
                e.u8(backend_tag(r.backend));
                e.seq(r.seeds.iter().copied());
                (r.cycles, r.trace_cycles, r.budget_fs).put(&mut e);
            }
            JobRequest::Shmoo(r) => {
                e.u8(1);
                r.scenario.encode(&mut e);
                e.u8(backend_tag(r.backend));
                e.u32(r.sb);
                e.seq(r.periods_fs.iter().copied());
                e.u64(r.cycles);
            }
            JobRequest::Chaos(r) => {
                e.u8(2);
                r.scenario.encode(&mut e);
                (r.seeds, r.cycles, r.budget_fs).put(&mut e);
            }
        }
        e.into_bytes()
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
        let cycles = match self {
            JobRequest::Sim(r) => {
                // The trace limit sizes each batched group's word
                // column; rows past `cycles` would never be recorded.
                if u64::from(r.trace_cycles) > r.cycles {
                    return Err("trace_cycles must be 0 (unlimited) or at most cycles".to_owned());
                }
                r.cycles
            }
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
                r.cycles
            }
            JobRequest::Chaos(r) => r.cycles,
        };
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

impl JobResult {
    /// The canonical byte form served by `/result/<id>` — a pure
    /// function of the result value, so a served body is byte-identical
    /// to an encoding of the same job computed locally.
    pub fn to_canonical_bytes(&self) -> Vec<u8> {
        let mut e = Enc::default();
        e.raw(RESULT_MAGIC);
        e.u8(WIRE_VERSION);
        match self {
            JobResult::Sim(runs) => {
                e.u8(0);
                e.u64(runs.len() as u64);
                for run in runs {
                    e.u64(run.seed);
                    e.long_bytes(run.outcome.as_bytes());
                    e.u64(run.traces.len() as u64);
                    for t in &run.traces {
                        e.long_bytes(t);
                    }
                }
            }
            JobResult::Shmoo(points) => {
                e.u8(1);
                e.seq(points.iter().map(|p| (p.period_fs, p.pass, p.violations)));
            }
            JobResult::Chaos(runs) => {
                e.u8(2);
                e.u64(runs.len() as u64);
                for run in runs {
                    e.u64(run.seed);
                    e.long_bytes(run.class.as_bytes());
                    e.u64(run.outcomes.len() as u64);
                    for (kind, outcome) in &run.outcomes {
                        e.long_bytes(kind.as_bytes());
                        e.long_bytes(outcome.as_bytes());
                    }
                    e.u64(run.violations.len() as u64);
                    for v in &run.violations {
                        e.long_bytes(v.as_bytes());
                    }
                }
            }
        }
        e.into_bytes()
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

/// Cumulative batched-execution counters since process start, surfaced
/// on `/metrics` as batch-occupancy gauges: `(batches formed, total
/// lanes, total lockstep groups after runs)`.
pub use synchro_tokens::campaign::batch_metrics;

/// The wire text of a run's outcome.
fn outcome_text(outcome: &Result<RunOutcome, SimError>) -> String {
    match outcome {
        Ok(RunOutcome::Reached) => "reached".to_owned(),
        Ok(RunOutcome::Deadlock { stopped }) => {
            let names: Vec<String> = stopped.iter().map(ToString::to_string).collect();
            format!("deadlock: {}", names.join(","))
        }
        Ok(RunOutcome::TimedOut) => "timed-out".to_owned(),
        Err(e) => format!("error: {e}"),
    }
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
    let outcome = sys.run_to_verdict(req.cycles, SimDuration::fs(req.budget_fs));
    SimRunResult {
        seed,
        outcome: outcome_text(&outcome),
        traces: (0..spec.sbs.len())
            .map(|i| sys.io_trace(SbId(i)).to_canonical_bytes())
            .collect(),
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
            // Byte-identical to `run_sim_once` per seed on whichever
            // engine `run_configs` picks; compiled multi-seed requests
            // run as batched lanes.
            let spec = r.scenario.spec();
            let limits = RunLimits {
                cycles: r.cycles,
                budget: SimDuration::fs(r.budget_fs),
                stop: Stop::Verdict,
            };
            let make = |i: usize| mixer_builder(&spec, r.seeds[i], r.trace_cycles as usize);
            let runs = run_configs(
                r.seeds.len(),
                make,
                r.backend,
                limits,
                threads,
                hooks,
                |i, run| SimRunResult {
                    seed: r.seeds[i],
                    outcome: outcome_text(&run.outcome),
                    traces: (0..spec.sbs.len())
                        .map(|sb| run.io_trace(SbId(sb)).to_canonical_bytes())
                        .collect(),
                },
            )
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
    fn trace_cycles_beyond_cycles_are_refused() {
        let JobRequest::Sim(r) = tiny_sim(Backend::Compiled) else {
            unreachable!()
        };
        for (trace_cycles, ok) in [
            (0, true),
            (1, true),
            (30, true),
            (31, false),
            (u32::MAX, false),
        ] {
            let req = JobRequest::Sim(SimRequest {
                trace_cycles,
                ..r.clone()
            });
            assert_eq!(req.validate().is_ok(), ok, "trace_cycles {trace_cycles}");
        }
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
        let (batches, lanes, groups, _) = batch_metrics();
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
    fn compiled_sim_cancels_between_shards_at_one_worker() {
        // 130 seeds run as 64 + 64 + 2 batched lanes even on one worker,
        // so a token tripped by the first progress report (as a job
        // deadline does) stops the job after 64 seeds, not at the end.
        let JobRequest::Sim(mut r) = tiny_sim(Backend::Compiled) else {
            unreachable!()
        };
        r.seeds = (1..=130).collect();
        let token = synchro_tokens::CancelToken::new();
        let reports = std::sync::Mutex::new(Vec::new());
        let progress = |done: usize, _: usize| {
            reports.lock().unwrap().push(done);
            token.cancel();
        };
        let hooks = RunHooks {
            cancel: Some(&token),
            progress: Some(&progress),
        };
        assert_eq!(execute(&JobRequest::Sim(r), 1, hooks), Err(ExecCancelled));
        assert_eq!(reports.into_inner().unwrap(), vec![64]);
    }

    #[test]
    fn served_chaos_bytes_are_pinned() {
        // A chaos job's wire bytes are a pure function of the request;
        // any change to how its goldens or attacked runs execute must
        // leave them (violation texts included) byte for byte intact.
        let req = JobRequest::Chaos(ChaosRequest {
            scenario: Scenario::PingPong,
            seeds: 2,
            cycles: 60,
            budget_fs: SimDuration::us(2000).as_fs(),
        });
        let bytes = execute(&req, 1, RunHooks::default())
            .unwrap()
            .to_canonical_bytes();
        assert_eq!(st_sim::hash::fnv1a64(&bytes), 0xfea7_89a1_7c27_2fd9);
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
