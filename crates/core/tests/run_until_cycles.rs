//! Edge-case coverage for `System::run_until_cycles` (and its compiled
//! twin via [`AnySystem`]): zero-cycle requests, targets that are
//! already satisfied, time budgets that expire, and stopped-clock
//! systems that can never reach the target — which must report
//! deadlock, not hang.

use st_sim::prelude::*;
use synchro_tokens::prelude::*;
use synchro_tokens::scenarios::{build_e1, producer_consumer_spec, starved_triangle_spec};

fn build_pair(backend: Backend) -> AnySystem {
    SystemBuilder::new(producer_consumer_spec())
        .expect("valid spec")
        .with_logic(SbId(0), SequenceSource::new(7, 3))
        .with_logic(SbId(1), SinkCollect::new())
        .build_backend(backend)
}

const BACKENDS: [Backend; 2] = [Backend::Event, Backend::Compiled];

#[test]
fn zero_cycle_request_returns_immediately() {
    for backend in BACKENDS {
        let mut sys = build_pair(backend);
        let out = sys.run_until_cycles(0, SimDuration::us(100)).unwrap();
        assert_eq!(out, RunOutcome::Reached, "{backend:?}");
        assert_eq!(sys.now(), SimTime::ZERO, "{backend:?}: no time may pass");
        assert_eq!(sys.cycles(SbId(0)), 0, "{backend:?}");
    }
}

#[test]
fn already_reached_target_does_not_advance_time() {
    for backend in BACKENDS {
        let mut sys = build_pair(backend);
        let out = sys.run_until_cycles(50, SimDuration::us(100)).unwrap();
        assert_eq!(out, RunOutcome::Reached, "{backend:?}");
        let t = sys.now();
        let cycles: Vec<u64> = (0..2).map(|i| sys.cycles(SbId(i))).collect();
        // Asking again for an already-met (or smaller) target must be a
        // no-op: same outcome, no simulated time, no extra cycles.
        for target in [50, 10, 1] {
            let again = sys.run_until_cycles(target, SimDuration::us(100)).unwrap();
            assert_eq!(again, RunOutcome::Reached, "{backend:?} target {target}");
            assert_eq!(sys.now(), t, "{backend:?} target {target}");
            for (i, &before) in cycles.iter().enumerate() {
                assert_eq!(sys.cycles(SbId(i)), before, "{backend:?}");
            }
        }
    }
}

#[test]
fn expired_time_budget_reports_timeout() {
    for backend in BACKENDS {
        let mut sys = build_pair(backend);
        // 10 ns covers zero full cycles of a 10/12 ns pair, let alone
        // one thousand.
        let out = sys.run_until_cycles(1000, SimDuration::ns(10)).unwrap();
        assert_eq!(out, RunOutcome::TimedOut, "{backend:?}");
        // A zero budget must also return (immediately), not spin.
        let out = sys.run_until_cycles(1000, SimDuration::ZERO).unwrap();
        assert_eq!(out, RunOutcome::TimedOut, "{backend:?}");
    }
}

#[test]
fn stopped_clocks_report_deadlock_rather_than_hang() {
    // Every clock in the starved triangle parks within its first cycles
    // with all tokens frozen inside stopped holders; the event queue
    // drains, and the runner must detect that and name the stuck SBs
    // instead of timing out (or worse, spinning forever on a target no
    // SB can reach).
    for backend in BACKENDS {
        let mut sys: AnySystem = match backend {
            Backend::Event => build_e1(starved_triangle_spec(), 0, 100).into(),
            Backend::Compiled => {
                let sys = synchro_tokens::scenarios::build_e1_backend(
                    starved_triangle_spec(),
                    0,
                    100,
                    Backend::Compiled,
                );
                assert_eq!(sys.backend_kind(), BackendKind::Compiled);
                sys
            }
        };
        let out = sys.run_until_cycles(100, SimDuration::us(3000)).unwrap();
        let RunOutcome::Deadlock { stopped } = out else {
            panic!("{backend:?}: expected deadlock, got {out:?}");
        };
        assert_eq!(
            stopped,
            vec![SbId(0), SbId(1), SbId(2)],
            "{backend:?}: every SB's clock must be parked"
        );
        assert_eq!(sys.stopped_sbs(), stopped, "{backend:?}");
        assert!(
            sys.cycles(SbId(0)) < 100,
            "{backend:?}: the target must be unreachable"
        );
    }
}

#[test]
fn deadlock_is_byte_identical_across_backends() {
    // The adversarial schedule (clock stops with tokens in flight, then
    // permanent starvation) is exactly where the compiled engine's
    // park/restart logic could drift; lock every observable.
    let mut ev: AnySystem = build_e1(starved_triangle_spec(), 0, 100).into();
    let mut cc = synchro_tokens::scenarios::build_e1_backend(
        starved_triangle_spec(),
        0,
        100,
        Backend::Compiled,
    );
    let a = ev.run_until_cycles(100, SimDuration::us(3000)).unwrap();
    let b = cc.run_until_cycles(100, SimDuration::us(3000)).unwrap();
    assert_eq!(a, b);
    assert_eq!(ev.now(), cc.now());
    for i in 0..3 {
        let sb = SbId(i);
        assert_eq!(ev.cycles(sb), cc.cycles(sb));
        assert_eq!(ev.io_trace(sb), cc.io_trace(sb));
        assert_eq!(ev.clock_stats(sb), cc.clock_stats(sb));
        assert_eq!(ev.edge_times(sb), cc.edge_times(sb));
    }
    for c in 0..3 {
        assert_eq!(ev.fifo_stats(ChannelId(c)), cc.fifo_stats(ChannelId(c)));
    }
}
