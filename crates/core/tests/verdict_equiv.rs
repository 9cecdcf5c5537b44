//! Differential proof of the verdict-run contract (ST-EQ-019): on the
//! event, compiled and batched engines, `run_to_verdict(cycles, t)`
//! must report the same [`RunOutcome`] and leave every SB's canonical
//! STIO bytes identical to `run_until_cycles(cycles, t)`. Covered: E1
//! delay configurations whose chunked run needs a second chunk, the
//! ping-pong and chain specs over every kind of trace limit, legs
//! resumed from a checkpoint, SEU plans (straight and forked), the E6
//! starved triangle (deadlock) and a tiny budget (timeout).
//!
//! Outside the verdict rule (trace limit 0 or above `cycles`) the
//! verdict run is `run_until_cycles` verbatim, so its end time, cycle
//! counts and event count must match too. Inside it, a work guard
//! checks that the verdict run really stops early: a silent fallback to
//! the chunked rule fails here rather than only in a benchmark.
//!
//! The case budget honours `PROPTEST_CASES` (CI runs a fixed reduced
//! budget; see `scripts/ci.sh`).

use st_sim::prelude::*;
use st_testkit::chaos::seu_sweep_plans;
use st_testkit::prop::prelude::*;
use synchro_tokens::determinism::{enumerate_configs, CampaignConfig};
use synchro_tokens::prelude::*;
use synchro_tokens::scenarios::{
    chain_spec, e1_spec, pingpong_spec, starved_triangle_spec, MixerLogic,
};
use synchro_tokens::{run_with_plan, run_with_plan_resumed, BackendKind};

const MAX_TIME: SimDuration = SimDuration::us(3000);

/// The conformance clause this suite is evidence for (see
/// `conformance/requirements.toml`).
const WITNESSED: &[&str] = &["ST-EQ-019"];

#[test]
fn conformance_witnesses() {
    st_conformance::witnesses!(["ST-EQ-019"]);
}

fn builder(spec: &SystemSpec, trace_limit: usize, salt: u64) -> SystemBuilder {
    let mut b = SystemBuilder::new(spec.clone())
        .expect("scenario specs validate")
        .with_trace_limit(trace_limit);
    for i in 0..spec.sbs.len() {
        b = b.with_logic(SbId(i), MixerLogic::new(salt ^ (0x1000 * i as u64)));
    }
    b
}

/// True when a verdict run may stop early: the trace limit is in
/// `1..=cycles`.
fn stops_early(trace_limit: usize, cycles: u64) -> bool {
    (1..=cycles).contains(&(trace_limit as u64))
}

/// What a verdict run promises: the outcome and every SB's STIO bytes.
fn verdict(sys: &AnySystem, outcome: RunOutcome) -> (RunOutcome, Vec<Vec<u8>>) {
    let traces = (0..sys.spec().sbs.len())
        .map(|i| sys.io_trace(SbId(i)).to_canonical_bytes())
        .collect();
    (outcome, traces)
}

/// What only the fallback promises besides: end time, per-SB cycle
/// counts and events fired.
fn end_state(sys: &AnySystem) -> (SimTime, Vec<u64>, u64) {
    let cycles = (0..sys.spec().sbs.len())
        .map(|i| sys.cycles(SbId(i)))
        .collect();
    (sys.now(), cycles, sys.events_fired())
}

/// Runs two engines from `make`, one chunked and one to its verdict,
/// asserts the contract, and returns the outcome and the events each
/// leg fired `(chunked, verdict)`.
fn assert_scalar(
    make: impl Fn() -> AnySystem,
    cycles: u64,
    max_time: SimDuration,
) -> (RunOutcome, u64, u64) {
    let (mut chunked, mut fast) = (make(), make());
    let kind = chunked.backend_kind();
    let limit = chunked.io_trace(SbId(0)).limit();
    let before = (chunked.events_fired(), fast.events_fired());
    let a = chunked
        .run_until_cycles(cycles, max_time)
        .expect("chunked run");
    let b = fast.run_to_verdict(cycles, max_time).expect("verdict run");
    assert_eq!(
        verdict(&chunked, a.clone()),
        verdict(&fast, b),
        "{kind:?}: verdict run differs (cycles {cycles}, limit {limit})"
    );
    if !stops_early(limit, cycles) {
        assert_eq!(
            end_state(&chunked),
            end_state(&fast),
            "{kind:?}: fallback verdict run must be run_until_cycles verbatim"
        );
    }
    (
        a,
        chunked.events_fired() - before.0,
        fast.events_fired() - before.1,
    )
}

/// [`assert_scalar`] on the event and the compiled engine.
fn assert_both(
    make: impl Fn(Backend) -> AnySystem,
    cycles: u64,
    max_time: SimDuration,
) -> RunOutcome {
    let (event, ..) = assert_scalar(|| make(Backend::Event), cycles, max_time);
    let (compiled, ..) = assert_scalar(
        || {
            let sys = make(Backend::Compiled);
            assert_eq!(sys.backend_kind(), BackendKind::Compiled);
            sys
        },
        cycles,
        max_time,
    );
    assert_eq!(event, compiled, "engines disagree on the outcome");
    compiled
}

/// The batched form of [`assert_scalar`], per lane; returns the
/// outcomes and the summed events `(chunked, verdict)`.
fn assert_batched(
    make: impl Fn() -> Vec<SystemBuilder>,
    cycles: u64,
    max_time: SimDuration,
) -> (Vec<RunOutcome>, u64, u64) {
    let build =
        || BatchedSystem::build_with_limit(make(), 64).expect("inside the batched envelope");
    let (mut chunked, mut fast) = (build(), build());
    let a = chunked.run_until_cycles(cycles, max_time);
    let b = fast.run_to_verdict(cycles, max_time);
    assert_eq!(a, b, "batched outcomes");
    let (mut events_chunked, mut events_fast) = (0, 0);
    for lane in 0..chunked.lanes() {
        let sbs = chunked.spec(lane).sbs.len();
        let limit = chunked.io_trace(lane, SbId(0)).limit();
        for sb in (0..sbs).map(SbId) {
            assert_eq!(
                chunked.io_trace(lane, sb).to_canonical_bytes(),
                fast.io_trace(lane, sb).to_canonical_bytes(),
                "batched lane {lane} {sb}: verdict trace differs"
            );
        }
        if !stops_early(limit, cycles) {
            let end = |s: &BatchedSystem| {
                let cycles: Vec<u64> = (0..sbs).map(|i| s.cycles(lane, SbId(i))).collect();
                (s.now(lane), cycles, s.events_processed(lane))
            };
            assert_eq!(end(&chunked), end(&fast), "batched lane {lane}: fallback");
        }
        events_chunked += chunked.events_processed(lane);
        events_fast += fast.events_processed(lane);
    }
    (a, events_chunked, events_fast)
}

/// The slowest SB's period: `run_until_cycles` from time zero ends on a
/// multiple of `max_period × cycles` (for `cycles >= 16`).
fn max_period(spec: &SystemSpec) -> SimDuration {
    spec.sbs.iter().map(|s| s.period).max().expect("SBs")
}

#[test]
fn e1_configurations_needing_a_second_chunk() {
    let base = e1_spec();
    let cfg = CampaignConfig::default();
    let cycles = cfg.compare_cycles;
    let limit = cycles as usize;
    let specs: Vec<SystemSpec> = enumerate_configs(&base, &cfg)
        .iter()
        .map(|c| c.apply(&base))
        .collect();
    // Pick the configurations whose chunked run overran its first chunk.
    let second: Vec<SystemSpec> = specs
        .into_iter()
        .filter(|spec| {
            let mut sys = builder(spec, limit, 0).build_backend(Backend::Compiled);
            sys.run_until_cycles(cycles, cfg.max_time)
                .expect("compiled run");
            sys.now() > SimTime::ZERO + max_period(spec) * cycles
        })
        .collect();
    assert!(
        second.len() >= 8,
        "expected E1 configurations that need a second chunk, found {}",
        second.len()
    );
    for spec in &second {
        let (outcome, chunked, fast) = assert_scalar(
            || builder(spec, limit, 0).build_backend(Backend::Compiled),
            cycles,
            cfg.max_time,
        );
        assert_eq!(outcome, RunOutcome::Reached);
        assert!(
            fast < chunked,
            "verdict run fired {fast} of {chunked} events"
        );
    }
    for spec in second.iter().take(3) {
        assert_both(
            |b| builder(spec, limit, 0).build_backend(b),
            cycles,
            cfg.max_time,
        );
    }
    let (outcomes, chunked, fast) = assert_batched(
        || second.iter().map(|s| builder(s, limit, 0)).collect(),
        cycles,
        cfg.max_time,
    );
    assert!(outcomes.iter().all(|o| *o == RunOutcome::Reached));
    assert!(
        fast < chunked,
        "batched verdict fired {fast} of {chunked} events"
    );
}

proptest! {
    #![proptest_config(st_testkit::case_budget(32, WITNESSED))]

    /// Ping-pong and chain specs over every kind of trace limit:
    /// unlimited, one row, partial, exactly `cycles` and past it.
    #[test]
    fn scenario_verdicts_match_on_every_engine(
        which in 0usize..3,
        cycles in 8u64..160,
        limit_sel in 0usize..5,
        salt in 0u64..1000,
    ) {
        let spec = match which {
            0 => pingpong_spec(),
            1 => chain_spec(3),
            _ => chain_spec(5),
        };
        let limit = [0, 1, cycles as usize / 2, cycles as usize, cycles as usize + 1][limit_sel];
        let outcome = assert_both(|b| builder(&spec, limit, salt).build_backend(b), cycles, MAX_TIME);
        prop_assert_eq!(outcome, RunOutcome::Reached);
        let (outcomes, ..) = assert_batched(
            || (0..4).map(|k| builder(&spec, limit, salt + k)).collect(),
            cycles,
            MAX_TIME,
        );
        prop_assert!(outcomes.iter().all(|o| *o == RunOutcome::Reached));
    }

    /// Legs resumed from a checkpoint taken after `run_until_cycles(k)`.
    #[test]
    fn resumed_verdicts_match(k in 1u64..60, extra in 1u64..60, limit_sel in 0usize..3) {
        let spec = e1_spec();
        let cycles = k + extra;
        let limit = [0, cycles as usize, cycles as usize + 7][limit_sel];
        for backend in [Backend::Event, Backend::Compiled] {
            let mut prefix = builder(&spec, limit, 0).build_backend(backend);
            prefix.run_until_cycles(k, MAX_TIME).expect("prefix");
            let ckpt = prefix.checkpoint().expect("E1 checkpoints");
            let make = || AnySystem::resume(builder(&spec, limit, 0), &ckpt).expect("resume");
            let (outcome, ..) = assert_scalar(make, cycles, MAX_TIME);
            prop_assert_eq!(outcome, RunOutcome::Reached);
        }
    }
}

/// The work guard: E1 forked at cycle 48 and run to 60 cycles. The
/// chunked suffix runs a whole 60-cycle chunk past the fork; the
/// verdict suffix stops once the slowest SB reaches cycle 60.
#[test]
fn verdict_suffix_stops_at_the_trace_window() {
    let spec = e1_spec();
    let (fork, cycles) = (48, 60);
    let mut prefix = builder(&spec, cycles as usize, 0).build_backend(Backend::Compiled);
    assert_eq!(
        prefix.run_until_cycles(fork, MAX_TIME).unwrap(),
        RunOutcome::Reached
    );
    let ckpt = prefix.checkpoint().expect("E1 checkpoints");
    let make = || AnySystem::resume(builder(&spec, cycles as usize, 0), &ckpt).expect("resume");
    let (outcome, chunked, fast) = assert_scalar(make, cycles, MAX_TIME);
    assert_eq!(outcome, RunOutcome::Reached);
    assert!(
        3 * fast <= chunked,
        "verdict suffix fired {fast} events, chunked {chunked}: more than a third"
    );
}

/// `run_with_plan` with every leg on `run_until_cycles` — the drive
/// whose outcome and traces the verdict-ending one must reproduce.
fn run_plan_chunked(
    sys: &mut AnySystem,
    plan: &FaultPlan,
    cycles: u64,
    budget: SimDuration,
) -> RunOutcome {
    let deadline = sys.now() + budget;
    let mut seus: Vec<&SeuFault> = plan.seu.iter().collect();
    seus.sort_by_key(|s| s.at_cycle);
    let mut reached = 0;
    for seu in seus {
        let at = seu.at_cycle.min(cycles);
        if at > reached {
            let left = deadline.saturating_since(sys.now());
            if left.is_zero() {
                return RunOutcome::TimedOut;
            }
            match sys.run_until_cycles(at, left).unwrap() {
                RunOutcome::Reached => {}
                other => return other,
            }
            reached = at;
        }
        if let Some(fsm) = sys.node_mut(seu.sb, seu.ring) {
            match seu.target {
                SeuTarget::HoldBit(b) => fsm.seu_flip_hold(b),
                SeuTarget::RecycleBit(b) => fsm.seu_flip_recycle(b),
                SeuTarget::TokenLatch => fsm.seu_flip_token_latch(),
            }
        }
    }
    let left = deadline.saturating_since(sys.now());
    if left.is_zero() {
        return RunOutcome::TimedOut;
    }
    sys.run_until_cycles(cycles, left).unwrap()
}

#[test]
fn seu_plans_match_straight_and_forked() {
    let spec = e1_spec();
    let cycles = 60;
    let budget = SimDuration::us(2000);
    let make = |plan: &FaultPlan, backend| {
        builder(&spec, cycles as usize, 0)
            .with_fault_plan(plan.clone())
            .build_backend(backend)
    };
    let mut plans: Vec<FaultPlan> = [3, 30, 52]
        .into_iter()
        .flat_map(|at| seu_sweep_plans(&spec, at, 6))
        .collect();
    plans.extend((0..4).map(|seed| FaultPlan::generate(FaultClass::State, &spec, seed)));
    for plan in &plans {
        for backend in [Backend::Event, Backend::Compiled] {
            let mut chunked = make(plan, backend);
            let a = run_plan_chunked(&mut chunked, plan, cycles, budget);
            let mut fast = make(plan, backend);
            let b = run_with_plan(&mut fast, plan, cycles, budget).unwrap();
            assert_eq!(
                verdict(&chunked, a.clone()),
                verdict(&fast, b),
                "{backend:?} SEU plan {plan:?}"
            );
        }
    }

    // Forked: resume the nominal prefix at the strike cycle, exactly
    // as the prefix-fork sweep does.
    let f = 30;
    let mut prefix = builder(&spec, cycles as usize, 0).build_backend(Backend::Compiled);
    prefix.run_until_cycles(f, budget).unwrap();
    let ckpt = prefix.checkpoint().unwrap();
    for plan in seu_sweep_plans(&spec, f, 6) {
        let mut chunked = make(&plan, Backend::Compiled);
        let a = run_plan_chunked(&mut chunked, &plan, cycles, budget);
        let mut forked = AnySystem::resume(builder(&spec, cycles as usize, 0), &ckpt).unwrap();
        let b =
            run_with_plan_resumed(&mut forked, &plan, f, cycles, SimTime::ZERO + budget).unwrap();
        assert_eq!(verdict(&chunked, a), verdict(&forked, b), "forked {plan:?}");
    }
}

#[test]
fn starved_triangle_deadlocks_alike() {
    let spec = starved_triangle_spec();
    for limit in [0, 10, 500] {
        let outcome = assert_both(|b| builder(&spec, limit, 0).build_backend(b), 500, MAX_TIME);
        assert!(
            matches!(outcome, RunOutcome::Deadlock { .. }),
            "limit {limit}: {outcome:?}"
        );
        let (outcomes, ..) = assert_batched(
            || (0..3).map(|k| builder(&spec, limit, k)).collect(),
            500,
            MAX_TIME,
        );
        assert!(outcomes
            .iter()
            .all(|o| matches!(o, RunOutcome::Deadlock { .. })));
    }
}

#[test]
fn tiny_budget_times_out_alike() {
    for spec in [pingpong_spec(), e1_spec()] {
        let cycles = 100;
        // Budgets inside the first chunk and inside a later one.
        for budget in [SimDuration::ns(50), max_period(&spec) * (cycles + 3)] {
            for limit in [0, cycles as usize] {
                let outcome = assert_both(
                    |b| builder(&spec, limit, 0).build_backend(b),
                    cycles,
                    budget,
                );
                let (outcomes, ..) = assert_batched(
                    || (0..2).map(|k| builder(&spec, limit, k)).collect(),
                    cycles,
                    budget,
                );
                assert!(outcomes.iter().all(|o| *o == outcome));
                if budget == SimDuration::ns(50) {
                    assert_eq!(outcome, RunOutcome::TimedOut);
                }
            }
        }
    }
}
