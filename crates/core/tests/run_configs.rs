//! `run_configs` is the one place that picks an engine for a set of
//! configurations: batched lanes, scalar compiled, or the event kernel
//! (requested, or as the compiled backend's fallback). Whichever it
//! picks, every configuration must read back exactly what a direct
//! `build_backend` run of the same builder yields, at any thread count.

use st_sim::time::SimDuration;
use synchro_tokens::campaign::batch_metrics;
use synchro_tokens::scenarios::{mixer_builder, pingpong_spec};
use synchro_tokens::{
    run_configs, Backend, BackendKind, CancelToken, RunHooks, RunLimits, SbId, Stop, SystemBuilder,
};

const CONFIGS: usize = 9;
const CYCLES: u64 = 60;
const BUDGET: SimDuration = SimDuration::us(2000);

/// Builds configuration `i` of a case.
type Make = fn(usize) -> SystemBuilder;

fn mixers(i: usize) -> SystemBuilder {
    mixer_builder(&pingpong_spec(), 100 + i as u64, CYCLES as usize)
}

/// Bypass mode is outside the compiled and batched envelopes, so a
/// compiled request runs on the event kernel as `EventFallback`.
fn bypass_mixers(i: usize) -> SystemBuilder {
    mixers(i).bypass(SimDuration::ps(150))
}

fn limits(stop: Stop) -> RunLimits {
    RunLimits {
        cycles: CYCLES,
        budget: BUDGET,
        stop,
    }
}

/// Checks one case against direct per-config runs, at both stop rules
/// and at 1 and 4 threads: outcome, STIO bytes, digests and (for whole
/// runs) timing violations; that a batched case formed batches; and
/// that a pre-tripped token cancels before any run.
fn assert_matches_direct(make: Make, backend: Backend, batched: bool) {
    let sbs = || (0..pingpong_spec().sbs.len()).map(SbId);
    for stop in [Stop::Verdict, Stop::WholeCycles] {
        let want: Vec<_> = (0..CONFIGS)
            .map(|i| {
                let mut sys = make(i).build_backend(backend);
                let outcome = match stop {
                    Stop::Verdict => sys.run_to_verdict(CYCLES, BUDGET),
                    Stop::WholeCycles => sys.run_until_cycles(CYCLES, BUDGET),
                };
                let stio: Vec<_> = sbs()
                    .map(|sb| sys.io_trace(sb).to_canonical_bytes())
                    .collect();
                let digests: Vec<_> = sbs().map(|sb| sys.io_trace(sb).digest()).collect();
                let violations: Vec<_> = sbs().map(|sb| sys.timing_violations(sb)).collect();
                (outcome, stio, digests, violations)
            })
            .collect();
        let limits = limits(stop);
        for threads in [1, 4] {
            let at = format!("{backend:?}, {stop:?}, {threads} thread(s)");
            let hooks = RunHooks::default();
            let lanes_before = batch_metrics().1;
            let got = run_configs(CONFIGS, make, backend, limits, threads, hooks, |_, run| {
                let stio: Vec<_> = sbs()
                    .map(|sb| run.io_trace(sb).to_canonical_bytes())
                    .collect();
                let digests: Vec<_> = sbs().map(|sb| run.trace_digest(sb)).collect();
                let violations: Vec<_> = sbs().map(|sb| run.timing_violations(sb)).collect();
                (run.outcome, stio, digests, violations)
            })
            .expect("no token tripped");
            if batched {
                // Other tests only ever add to the process-wide count.
                let lanes = batch_metrics().1 - lanes_before;
                assert!(lanes >= CONFIGS as u64, "{lanes} batched lanes, {at}");
            }
            for (i, (got, want)) in got.iter().zip(&want).enumerate() {
                assert_eq!(got.0, want.0, "outcome of config {i}, {at}");
                assert_eq!(got.1, want.1, "STIO bytes of config {i}, {at}");
                assert_eq!(got.2, want.2, "digests of config {i}, {at}");
                if stop == Stop::WholeCycles {
                    assert_eq!(got.3, want.3, "violations of config {i}, {at}");
                }
            }
            let token = CancelToken::new();
            token.cancel();
            let hooks = RunHooks {
                cancel: Some(&token),
                progress: None,
            };
            let err = run_configs(CONFIGS, make, backend, limits, threads, hooks, |i, _| i)
                .expect_err("a pre-tripped token must cancel");
            assert!(err.completed.is_empty(), "{at}");
            assert_eq!(err.total, CONFIGS, "{at}");
        }
    }
}

#[test]
fn compiled_mixers_run_as_batched_lanes_and_match_direct_runs() {
    assert_matches_direct(mixers, Backend::Compiled, true);
}

#[test]
fn out_of_envelope_builders_take_the_event_fallback_and_match_direct_runs() {
    let kind = bypass_mixers(0)
        .build_backend(Backend::Compiled)
        .backend_kind();
    assert_eq!(kind, BackendKind::EventFallback);
    assert_matches_direct(bypass_mixers, Backend::Compiled, false);
}

#[test]
fn event_backend_runs_scalar_and_matches_direct_runs() {
    assert_matches_direct(mixers, Backend::Event, false);
}

#[test]
fn a_token_tripped_mid_run_stops_after_the_running_shard_or_config() {
    // One worker, as st-serve runs a job: a batched set still splits
    // into 64-lane shards, and a scalar or fallback set checks the
    // token before every configuration.
    let cases: [(Make, Backend, usize, usize); 3] = [
        (mixers, Backend::Compiled, 2 * 64 + 1, 64),
        (bypass_mixers, Backend::Compiled, CONFIGS, 1),
        (mixers, Backend::Event, CONFIGS, 1),
    ];
    for (make, backend, count, first) in cases {
        let token = CancelToken::new();
        let progress = |_: usize, _: usize| token.cancel();
        let hooks = RunHooks {
            cancel: Some(&token),
            progress: Some(&progress),
        };
        let err = run_configs(
            count,
            make,
            backend,
            limits(Stop::Verdict),
            1,
            hooks,
            |i, _| i,
        )
        .expect_err("the first progress report trips the token");
        let want: Vec<_> = (0..first).map(|i| (i, i)).collect();
        assert_eq!(err.completed, want, "{backend:?}, {count} configs");
        assert_eq!(err.total, count);
    }
}

/// Conformance clauses this suite is evidence for: a batched lane reads
/// back its scalar run, and results do not depend on the fan-out.
#[test]
fn conformance_witnesses() {
    st_conformance::witnesses!(["ST-EQ-003", "ST-CAMP-005"]);
}
