//! Differential equivalence of the compiled fast-path backend: over
//! random `SystemSpec`s and deterministic adversarial schedules (late
//! tokens, clock stops/restarts, zero-delay wires and FIFO stages,
//! depth-1 FIFOs, permanent deadlock, chronic timing violations), the
//! compiled engine must be **byte-identical** to the event kernel on
//! every observable: run outcome, end time, per-SB cycle counts, I/O
//! trace rows, edge times, clock/violation/drop statistics, per-channel
//! FIFO statistics and per-node token statistics.
//!
//! The case budget honours `PROPTEST_CASES` (CI runs a fixed reduced
//! budget; see `scripts/ci.sh`).

use st_sim::hash::fnv1a64;
use st_sim::prelude::*;
use st_testkit::prop::prelude::*;
use synchro_tokens::prelude::*;
use synchro_tokens::scenarios::{
    build_pingpong_backend, chain_spec, e1_spec, e1_spec_uncalibrated, matched_ring_recycles,
    pingpong_spec, producer_consumer_spec, MixerLogic,
};
use synchro_tokens::spec::NodeParams;

/// Builds the spec behind `backend` with a `MixerLogic` on every SB.
fn build(spec: &SystemSpec, trace_limit: usize, backend: Backend) -> AnySystem {
    builder(spec, trace_limit).build_backend(backend)
}

/// [`build`]'s builder, for resuming a checkpoint.
fn builder(spec: &SystemSpec, trace_limit: usize) -> SystemBuilder {
    let mut builder = SystemBuilder::new(spec.clone())
        .expect("generated spec must validate")
        .with_trace_limit(trace_limit);
    for i in 0..spec.sbs.len() {
        builder = builder.with_logic(SbId(i), MixerLogic::new(0x1000 * i as u64));
    }
    builder
}

/// Runs both backends over `spec` and asserts every observable matches.
fn assert_equivalent(spec: &SystemSpec, trace_limit: usize, cycles: u64) {
    let mut ev = build(spec, trace_limit, Backend::Event);
    let mut cc = build(spec, trace_limit, Backend::Compiled);
    assert_eq!(
        cc.backend_kind(),
        BackendKind::Compiled,
        "spec unexpectedly outside the compiled support envelope"
    );
    let max_time = SimDuration::us(3000);
    let a = ev.run_until_cycles(cycles, max_time).expect("event run");
    let b = cc.run_until_cycles(cycles, max_time).expect("compiled run");
    assert_eq!(a, b, "run outcome");
    assert_eq!(ev.now(), cc.now(), "end time");
    for i in 0..spec.sbs.len() {
        let sb = SbId(i);
        assert_eq!(ev.cycles(sb), cc.cycles(sb), "cycles of SB {i}");
        assert_eq!(ev.io_trace(sb), cc.io_trace(sb), "trace of SB {i}");
        assert_eq!(
            ev.io_trace(sb).digest(),
            cc.io_trace(sb).digest(),
            "trace digest of SB {i}"
        );
        assert_eq!(ev.clock_stats(sb), cc.clock_stats(sb), "clock of SB {i}");
        assert_eq!(ev.edge_times(sb), cc.edge_times(sb), "edges of SB {i}");
        assert_eq!(
            ev.timing_violations(sb),
            cc.timing_violations(sb),
            "violations of SB {i}"
        );
        assert_eq!(
            ev.dropped_words(sb),
            cc.dropped_words(sb),
            "drops of SB {i}"
        );
        let m_ev: &MixerLogic = ev.logic(sb);
        let m_cc: &MixerLogic = cc.logic(sb);
        assert_eq!(m_ev, m_cc, "logic state of SB {i}");
    }
    for c in 0..spec.channels.len() {
        assert_eq!(
            ev.fifo_stats(ChannelId(c)),
            cc.fifo_stats(ChannelId(c)),
            "FIFO stats of channel {c}"
        );
    }
    for r in 0..spec.rings.len() {
        let ring = RingId(r);
        for i in 0..spec.sbs.len() {
            let (ne, nc) = (ev.node(SbId(i), ring), cc.node(SbId(i), ring));
            assert_eq!(ne.is_some(), nc.is_some(), "node presence {i}/{r}");
            if let (Some(ne), Some(nc)) = (ne, nc) {
                assert_eq!(ne.phase(), nc.phase(), "node phase {i}/{r}");
                assert_eq!(ne.passes(), nc.passes(), "node passes {i}/{r}");
                assert_eq!(ne.stops(), nc.stops(), "node stops {i}/{r}");
                assert_eq!(
                    ne.early_tokens(),
                    nc.early_tokens(),
                    "node early tokens {i}/{r}"
                );
            }
        }
    }
    assert_eq!(ev.stopped_sbs(), cc.stopped_sbs(), "parked clocks");
}

// --- deterministic adversarial schedules -------------------------------

#[test]
fn nominal_pair_is_equivalent() {
    assert_equivalent(&producer_consumer_spec(), 100, 150);
}

#[test]
fn unlimited_trace_is_equivalent() {
    assert_equivalent(&producer_consumer_spec(), 0, 120);
}

#[test]
fn e1_platform_is_equivalent() {
    assert_equivalent(&e1_spec(), 100, 120);
}

#[test]
fn pingpong_is_equivalent() {
    assert_equivalent(&pingpong_spec(), 100, 300);
}

/// The exact benchmark workload (`SequenceSource` → `PipeTransform` over
/// the bidirectional high-duty ping-pong), so the `system_sim` numbers are
/// backed by a byte-identity proof on the same build.
#[test]
fn pingpong_bench_workload_is_equivalent() {
    let mut ev = build_pingpong_backend(100, Backend::Event);
    let mut cc = build_pingpong_backend(100, Backend::Compiled);
    assert_eq!(
        cc.backend_kind(),
        BackendKind::Compiled,
        "ping-pong must compile"
    );
    let max_time = SimDuration::us(3000);
    let a = ev.run_until_cycles(300, max_time).expect("event run");
    let b = cc.run_until_cycles(300, max_time).expect("compiled run");
    assert_eq!(a, b, "run outcome");
    assert_eq!(ev.now(), cc.now(), "end time");
    for i in 0..2 {
        let sb = SbId(i);
        assert_eq!(ev.cycles(sb), cc.cycles(sb), "cycles of SB {i}");
        assert_eq!(ev.io_trace(sb), cc.io_trace(sb), "trace {i}");
        assert_eq!(ev.clock_stats(sb), cc.clock_stats(sb), "clock of SB {i}");
        assert_eq!(ev.edge_times(sb), cc.edge_times(sb), "edges of SB {i}");
    }
    for c in 0..2 {
        assert_eq!(
            ev.fifo_stats(ChannelId(c)),
            cc.fifo_stats(ChannelId(c)),
            "FIFO stats of channel {c}"
        );
    }
    let pt_ev: &PipeTransform = ev.logic(SbId(1));
    let pt_cc: &PipeTransform = cc.logic(SbId(1));
    assert_eq!(pt_ev.forwarded, pt_cc.forwarded, "forwarded words");
    assert_eq!(pt_ev.dropped, pt_cc.dropped, "dropped words");
    assert!(pt_ev.forwarded > 0, "ping-pong must actually move words");
}

#[test]
fn chain_of_four_is_equivalent() {
    assert_equivalent(&chain_spec(4), 64, 120);
}

#[test]
fn late_tokens_from_uncalibrated_recycles_are_equivalent() {
    // Recycle registers far below calibration make every token late:
    // clocks stop every rotation and restart on arrival — the
    // park/restart/edge-bundling path on a permanent loop.
    for recycle in [1, 3, 6] {
        assert_equivalent(&e1_spec_uncalibrated(recycle), 80, 100);
    }
}

#[test]
fn stretched_ring_wires_stop_clocks_equivalently() {
    // A 1 µs wire on a 10 ns clock: tokens arrive tens of cycles late,
    // with long parked windows and same-instant restart edges.
    let mut spec = producer_consumer_spec();
    spec.rings[0].delay_fwd = SimDuration::us(1);
    spec.rings[0].delay_back = SimDuration::us(1);
    assert_equivalent(&spec, 100, 150);
}

#[test]
fn zero_delay_ring_wires_are_equivalent() {
    // Token toggles landing in the same instant as the posedge that
    // launched them — the sharpest same-instant ordering case.
    let mut spec = producer_consumer_spec();
    spec.rings[0].delay_fwd = SimDuration::ZERO;
    spec.rings[0].delay_back = SimDuration::ZERO;
    assert_equivalent(&spec, 100, 150);
}

#[test]
fn zero_stage_delay_and_depth_one_fifos_are_equivalent() {
    let mut spec = producer_consumer_spec();
    spec.channels[0].stage_delay = SimDuration::ZERO;
    assert_equivalent(&spec, 100, 150);
    spec.channels[0].fifo_depth = 1;
    assert_equivalent(&spec, 100, 150);
}

#[test]
fn chronic_timing_violations_corrupt_identically() {
    // logic_delay longer than the period: every edge after the first
    // violates setup, so every transmitted word takes the corruption
    // XOR — on both engines, identically.
    let mut spec = producer_consumer_spec();
    spec.sbs[0].logic_delay = SimDuration::ns(25);
    assert_equivalent(&spec, 100, 120);
}

#[test]
fn minimal_supported_period_is_equivalent() {
    // Half-period exactly the bundled-data delay (1 ps): pushes and
    // acks from edge k land in the same instant as edge k+1.
    let mut spec = producer_consumer_spec();
    spec.sbs[0].period = SimDuration::ps(2);
    assert_equivalent(&spec, 80, 100);
}

#[test]
fn starved_triangle_deadlocks_equivalently() {
    assert_equivalent(&synchro_tokens::scenarios::starved_triangle_spec(), 64, 100);
}

// --- tied rising edges ---------------------------------------------------

/// E1 with its clock periods set to `ns` and its rings re-matched to
/// them (product-matched recycles, first-arrival presets). Equal or
/// harmonic periods put rising phases of different SBs on one instant:
/// then another event is due when a phase fires, so the compiled engine
/// queues the edge instead of running it inline with its phase.
fn e1_with_periods(ns: [u64; 3]) -> SystemSpec {
    let mut spec = e1_spec_uncalibrated(1);
    for (sb, p) in spec.sbs.iter_mut().zip(ns) {
        sb.period = SimDuration::ns(p);
    }
    matched_ring_recycles(&mut spec, 0);
    spec
}

#[test]
fn tied_rising_edges_are_equivalent() {
    for ns in [[10, 10, 10], [10, 20, 20]] {
        assert_equivalent(&e1_with_periods(ns), 100, 150);
    }
}

/// Compiled checkpoints taken at chunk boundaries where rising edges
/// tie (every SB rises at 5 + 10k ns with equal periods; beta and gamma
/// at 10 + 20k ns with harmonic ones) resume to the STIO bytes of a
/// straight run, and to every observable of the run they were taken
/// from. The blobs are pinned: the order of tied edges, the seqs they
/// use up and the event count are all in the STCP bytes. On both
/// engines, the in-process snapshot at each tie equals the decoded
/// blob and resumes to its bytes.
#[test]
fn checkpoints_at_tied_edges_resume_exactly() {
    st_conformance::witnesses!(["ST-EQ-004", "ST-CKPT-007"]);
    let cases = [
        ([10, 10, 10], [35, 205, 605], 0x537e_49d7_7cc4_fa8e),
        ([10, 20, 20], [50, 210, 610], 0xaa58_5387_d013_11ac),
    ];
    let max_time = SimDuration::us(3000);
    let stio = |sys: &AnySystem, n: usize| -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| sys.io_trace(SbId(i)).to_canonical_bytes())
            .collect()
    };
    for (ns, instants, pin) in cases {
        let spec = e1_with_periods(ns);
        let n = spec.sbs.len();
        let mut straight = build(&spec, 100, Backend::Compiled);
        assert_eq!(straight.backend_kind(), BackendKind::Compiled);
        straight.run_until_cycles(100, max_time).unwrap();
        let mut blobs = Vec::new();
        for at in instants {
            let paused = || {
                let mut sys = build(&spec, 100, Backend::Compiled);
                sys.run_for(SimDuration::ns(at)).unwrap();
                sys
            };
            let ckpt = paused().checkpoint().unwrap();
            blobs.extend(ckpt.to_canonical_bytes());
            // The in-process snapshot at the tie is the decoded blob,
            // on the event kernel too, and resumes to the same bytes.
            for backend in [Backend::Compiled, Backend::Event] {
                let mut sys = build(&spec, 100, backend);
                sys.run_for(SimDuration::ns(at)).unwrap();
                let (snap, own) = (sys.snapshot().unwrap(), sys.checkpoint().unwrap());
                let what = format!("periods {ns:?}, {backend:?} at {at} ns");
                assert_eq!(snap, own.decode().unwrap(), "{what}: snapshot");
                let back = AnySystem::resume_decoded(builder(&spec, 100), &snap).unwrap();
                assert_eq!(back.checkpoint().unwrap(), own, "{what}: resumed");
            }
            let mut resumed = AnySystem::resume(builder(&spec, 100), &ckpt).unwrap();
            let mut reference = paused();
            resumed.run_until_cycles(100, max_time).unwrap();
            reference.run_until_cycles(100, max_time).unwrap();
            let what = format!("periods {ns:?}, checkpoint at {at} ns");
            assert_eq!(stio(&resumed, n), stio(&straight, n), "{what}: STIO");
            assert_eq!(resumed.now(), reference.now(), "{what}: end time");
            assert_eq!(resumed.events_fired(), reference.events_fired(), "{what}");
            for i in 0..n {
                let sb = SbId(i);
                assert_eq!(resumed.edge_times(sb), reference.edge_times(sb), "{what}");
                assert_eq!(resumed.clock_stats(sb), reference.clock_stats(sb), "{what}");
            }
        }
        let got = fnv1a64(&blobs);
        assert_eq!(
            got, pin,
            "periods {ns:?}: checkpoint bytes moved: {got:#018x}"
        );
    }
}

// --- randomized differential sweep -------------------------------------

/// A deterministic build recipe for a random GALS system. Selector
/// fields index modulo the relevant pool, so every recipe is valid.
#[derive(Debug, Clone)]
struct SpecRecipe {
    /// Per SB: (period selector, logic-delay selector).
    sbs: Vec<(u8, u8)>,
    /// Per ring: (holder sel, peer-offset sel, hold, recycle,
    /// fwd/back delay sels packed low/high byte, initial-recycle
    /// override: 0 = calibrated default, else the raw preset).
    rings: Vec<(u8, u8, u8, u8, u16, u8)>,
    /// Per channel: (ring sel, reversed, depth, stage-delay sel).
    channels: Vec<(u8, bool, u8, u8)>,
}

const PERIODS_NS: [u64; 5] = [4, 6, 10, 12, 14];
const WIRE_DELAYS_NS: [u64; 6] = [0, 1, 5, 12, 30, 60];
const STAGE_DELAYS_PS: [u64; 4] = [0, 200, 1000, 3000];
/// Mostly in-spec, with a tail that forces violations (> max period).
const LOGIC_DELAYS_NS: [u64; 4] = [0, 0, 2, 20];

fn arb_recipe() -> impl Strategy<Value = SpecRecipe> {
    (
        prop::collection::vec((any::<u8>(), any::<u8>()), 2..5),
        prop::collection::vec(
            (
                any::<u8>(),
                any::<u8>(),
                1u8..6,
                1u8..20,
                any::<u16>(),
                0u8..20,
            ),
            1..5,
        ),
        prop::collection::vec((any::<u8>(), any::<bool>(), 1u8..5, any::<u8>()), 1..7),
    )
        .prop_map(|(sbs, rings, channels)| SpecRecipe {
            sbs,
            rings,
            channels,
        })
}

fn build_spec(recipe: &SpecRecipe) -> SystemSpec {
    let mut s = SystemSpec::default();
    let n = recipe.sbs.len();
    for (i, &(p_sel, l_sel)) in recipe.sbs.iter().enumerate() {
        let period = SimDuration::ns(PERIODS_NS[p_sel as usize % PERIODS_NS.len()]);
        let sb = s.add_sb(&format!("sb{i}"), period);
        s.sbs[sb.0].logic_delay =
            SimDuration::ns(LOGIC_DELAYS_NS[l_sel as usize % LOGIC_DELAYS_NS.len()]);
    }
    let mut ring_ids = Vec::new();
    for &(h_sel, off_sel, hold, recycle, delay_sels, init) in &recipe.rings {
        let (fwd_sel, back_sel) = ((delay_sels & 0xFF) as u8, (delay_sels >> 8) as u8);
        let holder = SbId(h_sel as usize % n);
        let peer = SbId((holder.0 + 1 + off_sel as usize % (n - 1)) % n);
        let params = NodeParams::new(u32::from(hold), u32::from(recycle));
        let fwd = SimDuration::ns(WIRE_DELAYS_NS[fwd_sel as usize % WIRE_DELAYS_NS.len()]);
        let back = SimDuration::ns(WIRE_DELAYS_NS[back_sel as usize % WIRE_DELAYS_NS.len()]);
        let rid = s.add_ring_asymmetric(holder, peer, params, params, fwd, back);
        if init != 0 {
            s.rings[rid.0].peer_initial_recycle = Some(u32::from(init));
        }
        ring_ids.push(rid);
    }
    for &(r_sel, reversed, depth, f_sel) in &recipe.channels {
        let rid = ring_ids[r_sel as usize % ring_ids.len()];
        let ring = &s.rings[rid.0];
        let (from, to) = if reversed {
            (ring.peer, ring.holder)
        } else {
            (ring.holder, ring.peer)
        };
        let stage = SimDuration::ps(STAGE_DELAYS_PS[f_sel as usize % STAGE_DELAYS_PS.len()]);
        s.add_channel(from, to, rid, 16, depth as usize, stage);
    }
    s
}

/// The conformance clauses this suite is evidence for (see
/// `conformance/requirements.toml`): the compiled≡event byte identity
/// and, through it, the cycle-count purity of every SB's I/O trace.
const WITNESSED: &[&str] = &["ST-EQ-002", "ST-DET-001"];

/// Registers the suite's witness declaration; `st-conformance-lint`
/// counts it, and an unregistered ID fails right here.
#[test]
fn conformance_witnesses() {
    st_conformance::witnesses!(["ST-EQ-002", "ST-DET-001"]);
}

proptest! {
    #![proptest_config(st_testkit::case_budget(48, WITNESSED))]

    /// Compiled backend ≡ event backend on random systems: arbitrary
    /// topologies, plesiochronous periods, late/early tokens (random
    /// hold/recycle/initial-recycle), wire delays from zero to several
    /// cycles, and FIFO depths down to one.
    #[test]
    fn compiled_matches_event_backend_on_random_specs(recipe in arb_recipe()) {
        let spec = build_spec(&recipe);
        prop_assert!(spec.validate().is_ok(), "recipe built an invalid spec");
        assert_equivalent(&spec, 64, 120);
    }
}
