//! Literal pins of the wrapper's rising-edge step on both engines.
//!
//! The event kernel and the compiled engine run one shared edge step,
//! so a differential suite cannot see a bug in it: both engines would
//! carry the same bug. These pins are the independent oracle. Every
//! scenario-library spec runs with no fault, with one generated
//! analog, protocol and state plan, with a fixed plan that drops,
//! delays and duplicates handshakes and tokens, and with a sender that
//! ignores back-pressure, on the event kernel and on the compiled
//! engine. A no-fault batched run, a seeded E1 bypass run (whose
//! two-flop synchronizer has no differential partner) and a
//! setup-violated shmoo point complete the set. Each case pins the run
//! outcome, the end time and, per SB, the local cycles, the clock
//! statistics, the dropped words, the setup violations and the trace
//! digest, as literal values.
//!
//! On a mismatch the failure message prints the whole table of actual
//! values, one `(case, pin)` line each.

use st_sim::prelude::*;
use synchro_tokens::prelude::*;
use synchro_tokens::scenarios::{
    chain_spec, closed_ring_spec, e1_spec, mixer_builder, pingpong_spec, producer_consumer_spec,
    starved_triangle_spec,
};
use synchro_tokens::SbIo;

/// The fixed seed of every generated fault plan and mixer salt (one
/// whose protocol plans lose, delay and duplicate tokens).
const SEED: u64 = 3;
/// Local cycles each run must reach.
const CYCLES: u64 = 150;
/// Simulated-time budget of each run.
const BUDGET: SimDuration = SimDuration::us(100);

fn specs() -> Vec<(&'static str, SystemSpec)> {
    vec![
        ("pingpong", pingpong_spec()),
        ("producer_consumer", producer_consumer_spec()),
        ("e1", e1_spec()),
        ("chain4", chain_spec(4)),
        ("closed_ring5", closed_ring_spec(5)),
        ("starved_triangle", starved_triangle_spec()),
    ]
}

/// Generated analog jitter plus protocol faults on ring 0 and channel
/// 0: a duplicated and a delayed token pass, a dropped request, a
/// dropped acknowledge and a stalled push. Every extra stays under half
/// the smallest half period.
fn mixed_plan(spec: &SystemSpec) -> FaultPlan {
    let (ring, channel) = (RingId(0), ChannelId(0));
    let mut plan = FaultPlan::generate(FaultClass::Analog, spec, SEED);
    plan.protocol = vec![
        Fault::TokenDup {
            ring,
            to_holder: false,
            nth: 2,
            extra: SimDuration::ns(1),
        },
        Fault::TokenDelay {
            ring,
            to_holder: true,
            nth: 3,
            extra: SimDuration::ns(2),
        },
        Fault::ReqDrop { channel, nth: 3 },
        Fault::AckDrop { channel, nth: 4 },
        Fault::ChannelStall {
            channel,
            nth: 6,
            extra: SimDuration::ns(2),
        },
    ];
    plan
}

/// A sender that ignores back-pressure: it folds every received word
/// into an accumulator and writes a word on every output every cycle,
/// so blocked channels count dropped words.
struct Blind {
    acc: u64,
}

impl SyncLogic for Blind {
    fn tick(&mut self, cycle: u64, io: &mut SbIo<'_>) {
        for i in 0..io.num_inputs() {
            if let Some(w) = io.recv(i) {
                self.acc = self.acc.rotate_left(5) ^ w;
            }
        }
        for o in 0..io.num_outputs() {
            io.send(o, (self.acc ^ cycle ^ o as u64) & 0xFFFF);
        }
    }
}

/// One pin line: the outcome and end time, then per SB `cycles`,
/// `clock_stats`, dropped words, setup violations and trace digest.
fn pin(
    outcome: &RunOutcome,
    now: SimTime,
    sbs: usize,
    per_sb: impl Fn(SbId) -> (u64, (u64, u64), u64, u64, u64),
) -> String {
    let mut s = format!("{outcome:?} now={}", now.as_fs());
    for i in 0..sbs {
        let (cycles, (edges, stops), dropped, violations, digest) = per_sb(SbId(i));
        s += &format!(" | {cycles} {edges}/{stops} d{dropped} v{violations} {digest:016x}");
    }
    s
}

fn any_pin(sys: &AnySystem, outcome: &RunOutcome) -> String {
    pin(outcome, sys.now(), sys.spec().sbs.len(), |sb| {
        (
            sys.cycles(sb),
            sys.clock_stats(sb),
            sys.dropped_words(sb),
            sys.timing_violations(sb),
            sys.io_trace(sb).digest(),
        )
    })
}

fn backend_name(backend: Backend) -> &'static str {
    match backend {
        Backend::Event => "event",
        Backend::Compiled => "compiled",
    }
}

/// Runs `builder` behind `backend` under `plan` (SEUs included) and
/// pins the result.
fn run_any(builder: SystemBuilder, plan: Option<&FaultPlan>, backend: Backend) -> String {
    let builder = match plan {
        Some(p) => builder.with_fault_plan(p.clone()),
        None => builder,
    };
    let mut sys = builder.build_backend(backend);
    let want = match backend {
        Backend::Event => BackendKind::Event,
        Backend::Compiled => BackendKind::Compiled,
    };
    assert_eq!(sys.backend_kind(), want, "engine actually run");
    let outcome = match plan {
        Some(p) => run_with_plan(&mut sys, p, CYCLES, BUDGET),
        None => sys.run_until_cycles(CYCLES, BUDGET),
    }
    .expect("run");
    any_pin(&sys, &outcome)
}

fn actual_pins() -> Vec<(String, String)> {
    let mut out = Vec::new();
    let classes = [
        ("analog", FaultClass::Analog),
        ("protocol", FaultClass::Protocol),
        ("state", FaultClass::State),
    ];
    for (name, spec) in specs() {
        let mut plans = vec![("none", None)];
        for (class_name, class) in classes {
            plans.push((class_name, Some(FaultPlan::generate(class, &spec, SEED))));
        }
        plans.push(("mixed", Some(mixed_plan(&spec))));
        for backend in [Backend::Event, Backend::Compiled] {
            for (plan_name, plan) in &plans {
                let builder = mixer_builder(&spec, SEED, 0);
                out.push((
                    format!("{name}/{plan_name}/{}", backend_name(backend)),
                    run_any(builder, plan.as_ref(), backend),
                ));
            }
            // Back-pressure ignored: every blocked send is a dropped word.
            let mut builder = SystemBuilder::new(spec.clone()).expect("valid spec");
            for i in 0..spec.sbs.len() {
                builder = builder.with_logic(SbId(i), Blind { acc: i as u64 });
            }
            out.push((
                format!("{name}/blind/{}", backend_name(backend)),
                run_any(builder, None, backend),
            ));
        }
    }

    // No-fault batched lanes: four seeds of E1 in one lockstep group.
    let spec = e1_spec();
    let builders = (0..4).map(|s| mixer_builder(&spec, SEED + s, 0)).collect();
    let Ok(mut batch) = BatchedSystem::build(builders) else {
        panic!("E1 is inside the batched envelope");
    };
    let outcomes = batch.run_until_cycles(CYCLES, BUDGET);
    for (lane, outcome) in outcomes.iter().enumerate() {
        let line = pin(outcome, batch.now(lane), spec.sbs.len(), |sb| {
            (
                batch.cycles(lane, sb),
                batch.clock_stats(lane, sb),
                batch.dropped_words(lane, sb),
                batch.timing_violations(lane, sb),
                batch.trace_digest(lane, sb),
            )
        });
        out.push((format!("e1/batched/lane{lane}"), line));
    }

    // The bypass baseline, with a synchronizer window wide enough that
    // the seeded RNG resolves metastable samples.
    let mut sys = mixer_builder(&spec, SEED, 0)
        .bypass(SimDuration::ns(2))
        .build();
    let outcome = sys.run_until_cycles(CYCLES, BUDGET).expect("bypass run");
    let mut line = pin(&outcome, sys.now(), spec.sbs.len(), |sb| {
        (
            sys.cycles(sb),
            sys.clock_stats(sb),
            sys.dropped_words(sb),
            sys.timing_violations(sb),
            sys.io_trace(sb).digest(),
        )
    });
    for i in 0..spec.sbs.len() {
        line += &format!(" m{}", sys.metastable_samples(SbId(i)));
    }
    out.push(("e1/bypass/event".into(), line));

    // One shmoo point past the critical path: alpha's 6 ns path at a
    // 5 ns period violates setup on every edge.
    let mut shmoo = e1_spec();
    shmoo.sbs[0].logic_delay = SimDuration::ns(6);
    shmoo.sbs[0].period = SimDuration::ns(5);
    for backend in [Backend::Event, Backend::Compiled] {
        out.push((
            format!("e1/shmoo_5ns/{}", backend_name(backend)),
            run_any(mixer_builder(&shmoo, SEED, 0), None, backend),
        ));
    }
    out
}

const PINS: &[(&str, &str)] = &[
    ("pingpong/none/event", "Reached now=1500000000 | 150 150/0 d0 v0 2c949123799863a7 | 150 150/0 d0 v0 72ab6638e72beb39"),
    ("pingpong/analog/event", "Reached now=1500000000 | 150 150/0 d0 v0 2c949123799863a7 | 150 150/0 d0 v0 72ab6638e72beb39"),
    ("pingpong/protocol/event", "Reached now=1500000000 | 150 150/0 d0 v0 2c949123799863a7 | 150 150/0 d0 v0 72ab6638e72beb39"),
    ("pingpong/state/event", "Reached now=2150000000 | 215 215/0 d0 v0 cd823c826c52f2e3 | 215 215/0 d0 v0 fc1db90bb16c1f4a"),
    ("pingpong/mixed/event", "Reached now=1500000000 | 150 150/0 d0 v0 84420a24a5d3c3a6 | 150 150/0 d0 v0 384e48751be5ca34"),
    ("pingpong/blind/event", "Reached now=1500000000 | 150 150/0 d78 v0 484d81780cd90ddd | 150 150/0 d84 v0 b10ece87c730363a"),
    ("pingpong/none/compiled", "Reached now=1500000000 | 150 150/0 d0 v0 2c949123799863a7 | 150 150/0 d0 v0 72ab6638e72beb39"),
    ("pingpong/analog/compiled", "Reached now=1500000000 | 150 150/0 d0 v0 2c949123799863a7 | 150 150/0 d0 v0 72ab6638e72beb39"),
    ("pingpong/protocol/compiled", "Reached now=1500000000 | 150 150/0 d0 v0 2c949123799863a7 | 150 150/0 d0 v0 72ab6638e72beb39"),
    ("pingpong/state/compiled", "Reached now=2150000000 | 215 215/0 d0 v0 cd823c826c52f2e3 | 215 215/0 d0 v0 fc1db90bb16c1f4a"),
    ("pingpong/mixed/compiled", "Reached now=1500000000 | 150 150/0 d0 v0 84420a24a5d3c3a6 | 150 150/0 d0 v0 384e48751be5ca34"),
    ("pingpong/blind/compiled", "Reached now=1500000000 | 150 150/0 d78 v0 484d81780cd90ddd | 150 150/0 d84 v0 b10ece87c730363a"),
    ("producer_consumer/none/event", "Reached now=3000000000 | 298 298/1 d0 v0 9ce033a1af74c350 | 300 300/0 d0 v0 07d3ae52137cda34"),
    ("producer_consumer/analog/event", "Reached now=3000000000 | 298 298/1 d0 v0 9ce033a1af74c350 | 300 300/0 d0 v0 07d3ae52137cda34"),
    ("producer_consumer/protocol/event", "Reached now=3000000000 | 176 176/3 d0 v0 c36f5c9043b5007d | 188 188/1 d0 v0 edc286ff06160d3b"),
    ("producer_consumer/state/event", "Reached now=2100000000 | 208 208/1 d0 v0 78ce8778eb43ca63 | 210 210/0 d0 v0 0ef0ffa23bd21cbf"),
    ("producer_consumer/mixed/event", "Reached now=3000000000 | 298 298/2 d0 v0 3714cd6677821318 | 300 300/0 d0 v0 2d9d0fb67bfa115e"),
    ("producer_consumer/blind/event", "Reached now=3000000000 | 298 298/1 d222 v0 11e45623612ee532 | 300 300/0 d0 v0 690fa70b03ffc661"),
    ("producer_consumer/none/compiled", "Reached now=3000000000 | 298 298/1 d0 v0 9ce033a1af74c350 | 300 300/0 d0 v0 07d3ae52137cda34"),
    ("producer_consumer/analog/compiled", "Reached now=3000000000 | 298 298/1 d0 v0 9ce033a1af74c350 | 300 300/0 d0 v0 07d3ae52137cda34"),
    ("producer_consumer/protocol/compiled", "Reached now=3000000000 | 176 176/3 d0 v0 c36f5c9043b5007d | 188 188/1 d0 v0 edc286ff06160d3b"),
    ("producer_consumer/state/compiled", "Reached now=2100000000 | 208 208/1 d0 v0 78ce8778eb43ca63 | 210 210/0 d0 v0 0ef0ffa23bd21cbf"),
    ("producer_consumer/mixed/compiled", "Reached now=3000000000 | 298 298/2 d0 v0 3714cd6677821318 | 300 300/0 d0 v0 2d9d0fb67bfa115e"),
    ("producer_consumer/blind/compiled", "Reached now=3000000000 | 298 298/1 d222 v0 11e45623612ee532 | 300 300/0 d0 v0 690fa70b03ffc661"),
    ("e1/none/event", "Reached now=2100000000 | 210 210/0 d0 v0 7e071abc19ed9aca | 175 175/0 d0 v0 97ae26bab2617147 | 150 150/0 d0 v0 e23be131c5923db0"),
    ("e1/analog/event", "Reached now=2100000000 | 210 210/0 d0 v0 7e071abc19ed9aca | 175 175/0 d0 v0 97ae26bab2617147 | 150 150/0 d0 v0 e23be131c5923db0"),
    ("e1/protocol/event", "Reached now=2100000000 | 198 198/1 d0 v0 f3d6e9817ea6f2a2 | 171 171/1 d0 v0 59ce0716f92b924f | 150 150/0 d0 v0 e23be131c5923db0"),
    ("e1/state/event", "Reached now=3010000000 | 300 300/1 d0 v0 8b306f17563c2337 | 251 251/0 d0 v0 13c127ebe06c984e | 215 215/0 d0 v0 0785f3bd433343f3"),
    ("e1/mixed/event", "Reached now=2100000000 | 210 210/0 d0 v0 e5da1a09f2f3b09a | 175 175/0 d0 v0 19c620cb17cae0e3 | 150 150/0 d0 v0 2ec8eee8c1135dde"),
    ("e1/blind/event", "Reached now=2100000000 | 210 210/0 d332 v0 9953e3315cde4a72 | 175 175/0 d250 v0 084a61f0c5bb6f8a | 150 150/0 d212 v0 5a2b5d49ac02e114"),
    ("e1/none/compiled", "Reached now=2100000000 | 210 210/0 d0 v0 7e071abc19ed9aca | 175 175/0 d0 v0 97ae26bab2617147 | 150 150/0 d0 v0 e23be131c5923db0"),
    ("e1/analog/compiled", "Reached now=2100000000 | 210 210/0 d0 v0 7e071abc19ed9aca | 175 175/0 d0 v0 97ae26bab2617147 | 150 150/0 d0 v0 e23be131c5923db0"),
    ("e1/protocol/compiled", "Reached now=2100000000 | 198 198/1 d0 v0 f3d6e9817ea6f2a2 | 171 171/1 d0 v0 59ce0716f92b924f | 150 150/0 d0 v0 e23be131c5923db0"),
    ("e1/state/compiled", "Reached now=3010000000 | 300 300/1 d0 v0 8b306f17563c2337 | 251 251/0 d0 v0 13c127ebe06c984e | 215 215/0 d0 v0 0785f3bd433343f3"),
    ("e1/mixed/compiled", "Reached now=2100000000 | 210 210/0 d0 v0 e5da1a09f2f3b09a | 175 175/0 d0 v0 19c620cb17cae0e3 | 150 150/0 d0 v0 2ec8eee8c1135dde"),
    ("e1/blind/compiled", "Reached now=2100000000 | 210 210/0 d332 v0 9953e3315cde4a72 | 175 175/0 d250 v0 084a61f0c5bb6f8a | 150 150/0 d212 v0 5a2b5d49ac02e114"),
    ("chain4/none/event", "Reached now=2100000000 | 210 210/0 d0 v0 f4ed32e31d8646fc | 175 175/0 d0 v0 efd12d45b7517cdb | 150 150/0 d0 v0 73d998af7cdfa150 | 210 210/0 d0 v0 c4b514bfe08fe03f"),
    ("chain4/analog/event", "Reached now=2100000000 | 210 210/0 d0 v0 f4ed32e31d8646fc | 175 175/0 d0 v0 efd12d45b7517cdb | 150 150/0 d0 v0 73d998af7cdfa150 | 210 210/0 d0 v0 c4b514bfe08fe03f"),
    ("chain4/protocol/event", "Reached now=2100000000 | 198 198/1 d0 v0 c42f63cada2100a5 | 171 171/1 d0 v0 c578410f59e528a7 | 150 150/0 d0 v0 73d998af7cdfa150 | 210 210/0 d0 v0 c4b514bfe08fe03f"),
    ("chain4/state/event", "Reached now=3010000000 | 301 301/0 d0 v0 6a4281f45833d25a | 251 251/0 d0 v0 fdc1ebf9f5654413 | 215 215/0 d0 v0 08291bf26387077b | 300 300/1 d0 v0 8eaa19cca528b846"),
    ("chain4/mixed/event", "Reached now=2100000000 | 210 210/0 d0 v0 98a77c83cc29053f | 175 175/0 d0 v0 6cfa0e925fc3a9ad | 150 150/0 d0 v0 d3c02d2030608faa | 210 210/0 d0 v0 cb3e01c2a5b6a448"),
    ("chain4/blind/event", "Reached now=2100000000 | 210 210/0 d162 v0 61e47092280fad52 | 175 175/0 d123 v0 895f724bb61fbee2 | 150 150/0 d110 v0 0fa6708fc3b1e199 | 210 210/0 d0 v0 391d8925f6d0dc5d"),
    ("chain4/none/compiled", "Reached now=2100000000 | 210 210/0 d0 v0 f4ed32e31d8646fc | 175 175/0 d0 v0 efd12d45b7517cdb | 150 150/0 d0 v0 73d998af7cdfa150 | 210 210/0 d0 v0 c4b514bfe08fe03f"),
    ("chain4/analog/compiled", "Reached now=2100000000 | 210 210/0 d0 v0 f4ed32e31d8646fc | 175 175/0 d0 v0 efd12d45b7517cdb | 150 150/0 d0 v0 73d998af7cdfa150 | 210 210/0 d0 v0 c4b514bfe08fe03f"),
    ("chain4/protocol/compiled", "Reached now=2100000000 | 198 198/1 d0 v0 c42f63cada2100a5 | 171 171/1 d0 v0 c578410f59e528a7 | 150 150/0 d0 v0 73d998af7cdfa150 | 210 210/0 d0 v0 c4b514bfe08fe03f"),
    ("chain4/state/compiled", "Reached now=3010000000 | 301 301/0 d0 v0 6a4281f45833d25a | 251 251/0 d0 v0 fdc1ebf9f5654413 | 215 215/0 d0 v0 08291bf26387077b | 300 300/1 d0 v0 8eaa19cca528b846"),
    ("chain4/mixed/compiled", "Reached now=2100000000 | 210 210/0 d0 v0 98a77c83cc29053f | 175 175/0 d0 v0 6cfa0e925fc3a9ad | 150 150/0 d0 v0 d3c02d2030608faa | 210 210/0 d0 v0 cb3e01c2a5b6a448"),
    ("chain4/blind/compiled", "Reached now=2100000000 | 210 210/0 d162 v0 61e47092280fad52 | 175 175/0 d123 v0 895f724bb61fbee2 | 150 150/0 d110 v0 0fa6708fc3b1e199 | 210 210/0 d0 v0 391d8925f6d0dc5d"),
    ("closed_ring5/none/event", "Reached now=1500000000 | 150 150/0 d0 v0 3361aa2d3105a377 | 150 150/0 d0 v0 b5dc25f2b2be8d0a | 150 150/0 d0 v0 e560c74e29b5ef9e | 150 150/0 d0 v0 290d84a08ad928cf | 150 150/0 d0 v0 9b72b5c29cc40b7c"),
    ("closed_ring5/analog/event", "Reached now=1500000000 | 150 150/0 d0 v0 3361aa2d3105a377 | 150 150/0 d0 v0 b5dc25f2b2be8d0a | 150 150/0 d0 v0 e560c74e29b5ef9e | 150 150/0 d0 v0 290d84a08ad928cf | 150 150/0 d0 v0 9b72b5c29cc40b7c"),
    ("closed_ring5/protocol/event", "Reached now=1500000000 | 150 150/0 d0 v0 3361aa2d3105a377 | 150 150/0 d0 v0 b5dc25f2b2be8d0a | 150 150/0 d0 v0 e560c74e29b5ef9e | 150 150/0 d0 v0 290d84a08ad928cf | 150 150/0 d0 v0 9b72b5c29cc40b7c"),
    ("closed_ring5/state/event", "Reached now=2150000000 | 215 215/0 d0 v0 bc1d405d39a9d3bb | 215 215/1 d0 v0 80d5d78de2ece311 | 215 215/0 d0 v0 93cd99070e6092a8 | 215 215/0 d0 v0 d8a1ff6c8acaa0fe | 215 215/0 d0 v0 9c986fe51b2001d6"),
    ("closed_ring5/mixed/event", "Reached now=1500000000 | 150 150/0 d0 v0 7a137927f831e926 | 150 150/0 d0 v0 e229ce77c81b5b75 | 150 150/0 d0 v0 93b711e944fb1149 | 150 150/0 d0 v0 17127aa754a62067 | 150 150/0 d0 v0 f9d4842b3cbf2432"),
    ("closed_ring5/blind/event", "Reached now=1500000000 | 150 150/0 d106 v0 69e87808fd396c77 | 150 150/0 d106 v0 144ed2bd5f7fbd00 | 150 150/0 d106 v0 e27afb751b0f3eda | 150 150/0 d106 v0 e1bc05238f7bdca9 | 150 150/0 d106 v0 c6a6b56727b7c11b"),
    ("closed_ring5/none/compiled", "Reached now=1500000000 | 150 150/0 d0 v0 3361aa2d3105a377 | 150 150/0 d0 v0 b5dc25f2b2be8d0a | 150 150/0 d0 v0 e560c74e29b5ef9e | 150 150/0 d0 v0 290d84a08ad928cf | 150 150/0 d0 v0 9b72b5c29cc40b7c"),
    ("closed_ring5/analog/compiled", "Reached now=1500000000 | 150 150/0 d0 v0 3361aa2d3105a377 | 150 150/0 d0 v0 b5dc25f2b2be8d0a | 150 150/0 d0 v0 e560c74e29b5ef9e | 150 150/0 d0 v0 290d84a08ad928cf | 150 150/0 d0 v0 9b72b5c29cc40b7c"),
    ("closed_ring5/protocol/compiled", "Reached now=1500000000 | 150 150/0 d0 v0 3361aa2d3105a377 | 150 150/0 d0 v0 b5dc25f2b2be8d0a | 150 150/0 d0 v0 e560c74e29b5ef9e | 150 150/0 d0 v0 290d84a08ad928cf | 150 150/0 d0 v0 9b72b5c29cc40b7c"),
    ("closed_ring5/state/compiled", "Reached now=2150000000 | 215 215/0 d0 v0 bc1d405d39a9d3bb | 215 215/1 d0 v0 80d5d78de2ece311 | 215 215/0 d0 v0 93cd99070e6092a8 | 215 215/0 d0 v0 d8a1ff6c8acaa0fe | 215 215/0 d0 v0 9c986fe51b2001d6"),
    ("closed_ring5/mixed/compiled", "Reached now=1500000000 | 150 150/0 d0 v0 7a137927f831e926 | 150 150/0 d0 v0 e229ce77c81b5b75 | 150 150/0 d0 v0 93b711e944fb1149 | 150 150/0 d0 v0 17127aa754a62067 | 150 150/0 d0 v0 f9d4842b3cbf2432"),
    ("closed_ring5/blind/compiled", "Reached now=1500000000 | 150 150/0 d106 v0 69e87808fd396c77 | 150 150/0 d106 v0 144ed2bd5f7fbd00 | 150 150/0 d106 v0 e27afb751b0f3eda | 150 150/0 d106 v0 e1bc05238f7bdca9 | 150 150/0 d106 v0 c6a6b56727b7c11b"),
    ("starved_triangle/none/event", "Deadlock { stopped: [SbId(0), SbId(1), SbId(2)] } now=1500000000 | 1 1/1 d0 v0 78747d02929aa813 | 1 1/1 d0 v0 d94001bca8689234 | 1 1/1 d0 v0 139d89da703b5e05"),
    ("starved_triangle/analog/event", "Deadlock { stopped: [SbId(0), SbId(1), SbId(2)] } now=1500000000 | 1 1/1 d0 v0 78747d02929aa813 | 1 1/1 d0 v0 d94001bca8689234 | 1 1/1 d0 v0 139d89da703b5e05"),
    ("starved_triangle/protocol/event", "Deadlock { stopped: [SbId(0), SbId(1), SbId(2)] } now=1500000000 | 1 1/1 d0 v0 78747d02929aa813 | 1 1/1 d0 v0 d94001bca8689234 | 1 1/1 d0 v0 139d89da703b5e05"),
    ("starved_triangle/state/event", "Deadlock { stopped: [SbId(0), SbId(1), SbId(2)] } now=300000000 | 1 1/1 d0 v0 78747d02929aa813 | 1 1/1 d0 v0 d94001bca8689234 | 1 1/1 d0 v0 139d89da703b5e05"),
    ("starved_triangle/mixed/event", "Deadlock { stopped: [SbId(0), SbId(1), SbId(2)] } now=1500000000 | 1 1/1 d0 v0 78747d02929aa813 | 1 1/1 d0 v0 d94001bca8689234 | 1 1/1 d0 v0 139d89da703b5e05"),
    ("starved_triangle/blind/event", "Deadlock { stopped: [SbId(0), SbId(1), SbId(2)] } now=1500000000 | 1 1/1 d0 v0 6ef7c2525adc85cc | 1 1/1 d0 v0 96a815f10b17d38a | 1 1/1 d0 v0 458602ce167e2f09"),
    ("starved_triangle/none/compiled", "Deadlock { stopped: [SbId(0), SbId(1), SbId(2)] } now=1500000000 | 1 1/1 d0 v0 78747d02929aa813 | 1 1/1 d0 v0 d94001bca8689234 | 1 1/1 d0 v0 139d89da703b5e05"),
    ("starved_triangle/analog/compiled", "Deadlock { stopped: [SbId(0), SbId(1), SbId(2)] } now=1500000000 | 1 1/1 d0 v0 78747d02929aa813 | 1 1/1 d0 v0 d94001bca8689234 | 1 1/1 d0 v0 139d89da703b5e05"),
    ("starved_triangle/protocol/compiled", "Deadlock { stopped: [SbId(0), SbId(1), SbId(2)] } now=1500000000 | 1 1/1 d0 v0 78747d02929aa813 | 1 1/1 d0 v0 d94001bca8689234 | 1 1/1 d0 v0 139d89da703b5e05"),
    ("starved_triangle/state/compiled", "Deadlock { stopped: [SbId(0), SbId(1), SbId(2)] } now=300000000 | 1 1/1 d0 v0 78747d02929aa813 | 1 1/1 d0 v0 d94001bca8689234 | 1 1/1 d0 v0 139d89da703b5e05"),
    ("starved_triangle/mixed/compiled", "Deadlock { stopped: [SbId(0), SbId(1), SbId(2)] } now=1500000000 | 1 1/1 d0 v0 78747d02929aa813 | 1 1/1 d0 v0 d94001bca8689234 | 1 1/1 d0 v0 139d89da703b5e05"),
    ("starved_triangle/blind/compiled", "Deadlock { stopped: [SbId(0), SbId(1), SbId(2)] } now=1500000000 | 1 1/1 d0 v0 6ef7c2525adc85cc | 1 1/1 d0 v0 96a815f10b17d38a | 1 1/1 d0 v0 458602ce167e2f09"),
    ("e1/batched/lane0", "Reached now=2100000000 | 210 210/0 d0 v0 7e071abc19ed9aca | 175 175/0 d0 v0 97ae26bab2617147 | 150 150/0 d0 v0 e23be131c5923db0"),
    ("e1/batched/lane1", "Reached now=2100000000 | 210 210/0 d0 v0 52bb264981d980c1 | 175 175/0 d0 v0 f8cae5d04c766fe1 | 150 150/0 d0 v0 49e93b45d5dc7656"),
    ("e1/batched/lane2", "Reached now=2100000000 | 210 210/0 d0 v0 1c05b0bbc03f8ab8 | 175 175/0 d0 v0 7ea5776138878920 | 150 150/0 d0 v0 b2f4ddd0e4479a04"),
    ("e1/batched/lane3", "Reached now=2100000000 | 210 210/0 d0 v0 207ae9c9e4a07704 | 175 175/0 d0 v0 cb51b5df0ae71db8 | 150 150/0 d0 v0 b4e01dd7f408dd4f"),
    ("e1/bypass/event", "Reached now=2100000000 | 210 210/0 d0 v0 74049264c81ebc42 | 175 175/0 d0 v0 8cf309f08134dbcc | 150 150/0 d0 v0 c1932fc1455f66bd m13 m10 m2"),
    ("e1/shmoo_5ns/event", "Reached now=2100000000 | 216 216/18 d0 v198 b628351b597eb47f | 175 175/0 d0 v0 da178576a0bcfb91 | 150 150/0 d0 v0 ddd2373c5d3b2102"),
    ("e1/shmoo_5ns/compiled", "Reached now=2100000000 | 216 216/18 d0 v198 b628351b597eb47f | 175 175/0 d0 v0 da178576a0bcfb91 | 150 150/0 d0 v0 ddd2373c5d3b2102"),
];

#[test]
fn edge_step_pins_hold_on_both_engines() {
    let actual = actual_pins();
    let table: String = actual
        .iter()
        .map(|(case, pin)| format!("    (\"{case}\", \"{pin}\"),\n"))
        .collect();
    let expected: Vec<(String, String)> = PINS
        .iter()
        .map(|&(c, p)| (c.to_string(), p.to_string()))
        .collect();
    assert!(
        actual == expected,
        "edge pins moved; actual values:\n{table}"
    );
}
