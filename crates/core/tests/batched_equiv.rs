//! Differential equivalence of the batched lane-parallel backend:
//! every lane of a [`BatchedSystem`] must be **byte-identical** to the
//! scalar `CompiledSystem` *and* the event kernel run of the same
//! builder, on every observable — run outcome, end time, per-SB cycle
//! counts, I/O trace rows and digests, edge times, clock / violation /
//! drop statistics, per-channel FIFO statistics, per-node token
//! statistics, processed-event counts, and final logic state.
//!
//! Coverage includes the adversarial corners the batching move could
//! plausibly break: random spec families (late tokens from
//! uncalibrated recycles, clock stops, zero-delay wires, depth-1
//! FIFOs), per-lane *divergent send schedules* that force group splits
//! mid-run (including cascades that end with every lane in its own
//! group, and divergence on the very first edge), batch-formation
//! corners (N=1, N=65 over a 64-lane cap, mixed-spec batches), and
//! per-lane fault plans (which must be lowered as singleton groups).
//!
//! The case budget honours `PROPTEST_CASES` (CI runs a fixed reduced
//! budget; see `scripts/ci.sh`).

use st_sim::canon;
use st_sim::prelude::*;
use st_testkit::prop::prelude::*;
use synchro_tokens::logic::SbIo;
use synchro_tokens::prelude::*;
use synchro_tokens::scenarios::{
    e1_spec_uncalibrated, matched_ring_recycles, pingpong_spec, producer_consumer_spec, MixerLogic,
};
use synchro_tokens::spec::NodeParams;

const MAX_TIME: SimDuration = SimDuration::us(3000);

/// A source whose *send decision* is lane state: bit `cycle % 64` of
/// `gates` gates the transmit attempt (made regardless of `can_send`,
/// so blocked sends exercise the dropped-word path too). Two lanes
/// with different gate words diverge in control flow at the first
/// cycle where their bits differ — the engine must split their group
/// there and keep both byte-identical to scalar runs.
#[derive(Debug, Clone, PartialEq, Eq)]
struct GatedSource {
    gates: u64,
    next: u64,
    sent: u64,
}

impl GatedSource {
    fn new(gates: u64, start: u64) -> Self {
        GatedSource {
            gates,
            next: start,
            sent: 0,
        }
    }
}

impl SyncLogic for GatedSource {
    fn tick(&mut self, cycle: u64, io: &mut SbIo<'_>) {
        if io.num_outputs() > 0 && (self.gates >> (cycle % 64)) & 1 == 1 {
            if io.send(0, self.next) {
                self.sent += 1;
            }
            self.next = self.next.wrapping_add(7);
        }
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        Some(canon::encode(&(self.gates, self.next, self.sent)))
    }

    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        let Ok((gates, next, sent)) = canon::decode(bytes) else {
            return false;
        };
        *self = GatedSource { gates, next, sent };
        true
    }
}

/// A mixer whose *send decision* is lane state on a consuming SB: it
/// drains its inputs every enabled cycle (like [`MixerLogic`]) but
/// gates the transmit attempt by bit `cycle % 64` of `gates`, made
/// regardless of `can_send`. Unlike [`GatedSource`] this logic sits on
/// an SB *with inputs*, so divergence splits land on edges where the
/// SB also consumed a word — the split must carry the pending input
/// acknowledgments into every partition (regression: the split once
/// rebuilt the per-edge pop scratch cleared, so no `Pop` was scheduled
/// and the FIFO head stayed occupied forever).
#[derive(Debug, Clone, PartialEq, Eq)]
struct GatedMixer {
    gates: u64,
    acc: u64,
    next: u64,
    received: u64,
    sent: u64,
}

impl GatedMixer {
    fn new(gates: u64, start: u64) -> Self {
        GatedMixer {
            gates,
            acc: 0,
            next: start,
            received: 0,
            sent: 0,
        }
    }
}

impl SyncLogic for GatedMixer {
    fn tick(&mut self, cycle: u64, io: &mut SbIo<'_>) {
        for i in 0..io.num_inputs() {
            if let Some(w) = io.recv(i) {
                self.acc = self.acc.rotate_left(9).wrapping_add(w);
                self.received += 1;
            }
        }
        if io.num_outputs() > 0 && (self.gates >> (cycle % 64)) & 1 == 1 {
            if io.send(0, self.next.wrapping_add(self.acc & 0xFF)) {
                self.sent += 1;
            }
            self.next = self.next.wrapping_add(3);
        }
    }
}

/// A source on an SB with more than 32 outputs: it writes a word on
/// every output each cycle (regardless of `can_send`), except that the
/// outputs from 32 up are gated by bit `cycle % 64` of `gates`. Lanes
/// with different gate words therefore disagree only on those high
/// outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
struct WideSource {
    gates: u64,
    next: u64,
}

impl SyncLogic for WideSource {
    fn tick(&mut self, cycle: u64, io: &mut SbIo<'_>) {
        for k in 0..io.num_outputs() {
            if k < 32 || (self.gates >> (cycle % 64)) & 1 == 1 {
                io.send(k, self.next);
                self.next = self.next.wrapping_add(1);
            }
        }
    }
}

/// One builder per salt over `spec`, mixers on every SB (send pattern
/// is data-independent, so same-spec lanes stay in lockstep while
/// their data columns differ).
fn mixer_builders(spec: &SystemSpec, trace_limit: usize, salts: &[u64]) -> Vec<SystemBuilder> {
    salts
        .iter()
        .map(|&salt| {
            let mut b = SystemBuilder::new(spec.clone())
                .expect("spec must validate")
                .with_trace_limit(trace_limit);
            for i in 0..spec.sbs.len() {
                b = b.with_logic(SbId(i), MixerLogic::new((0x1000 * i as u64) ^ salt));
            }
            b
        })
        .collect()
}

/// Mixer on SB 0, gated mixer on SB 1 of a bidirectional spec; one
/// builder per gate word. SB 1 consumes a word on most enabled edges
/// (the SB 0 mixer transmits whenever it can), so gate-word divergence
/// splits the group on edges with pending input acknowledgments.
fn gated_mixer_builders(
    spec: &SystemSpec,
    trace_limit: usize,
    gates: &[u64],
) -> Vec<SystemBuilder> {
    gates
        .iter()
        .enumerate()
        .map(|(lane, &g)| {
            SystemBuilder::new(spec.clone())
                .expect("spec must validate")
                .with_trace_limit(trace_limit)
                .with_logic(SbId(0), MixerLogic::new(0xA5A5))
                .with_logic(SbId(1), GatedMixer::new(g, 500 + lane as u64))
        })
        .collect()
}

/// Gated source on SB 0, mixers elsewhere; one builder per gate word.
fn gated_builders(spec: &SystemSpec, trace_limit: usize, gates: &[u64]) -> Vec<SystemBuilder> {
    gates
        .iter()
        .enumerate()
        .map(|(lane, &g)| {
            let mut b = SystemBuilder::new(spec.clone())
                .expect("spec must validate")
                .with_trace_limit(trace_limit)
                .with_logic(SbId(0), GatedSource::new(g, 100 + lane as u64));
            for i in 1..spec.sbs.len() {
                b = b.with_logic(SbId(i), MixerLogic::new(0x1000 * i as u64));
            }
            b
        })
        .collect()
}

/// Runs the batch and both scalar backends of every lane, asserting
/// all observables match lane-by-lane. Returns the batch for extra
/// structural assertions (group counts after splits, etc.).
fn assert_batch_matches_scalar(
    make: &dyn Fn() -> Vec<SystemBuilder>,
    cycles: u64,
) -> BatchedSystem {
    let mut batch = BatchedSystem::build(make())
        .unwrap_or_else(|_| panic!("builders unexpectedly outside the batched envelope"));
    let outcomes = batch.run_until_cycles(cycles, MAX_TIME);
    let compiled = make();
    let event = make();
    for (lane, (bc, be)) in compiled.into_iter().zip(event).enumerate() {
        let mut cc = bc.build_backend(Backend::Compiled);
        let mut ev = be.build_backend(Backend::Event);
        assert_eq!(
            cc.backend_kind(),
            BackendKind::Compiled,
            "lane {lane} must compile"
        );
        let oc = cc.run_until_cycles(cycles, MAX_TIME).expect("compiled run");
        let oe = ev.run_until_cycles(cycles, MAX_TIME).expect("event run");
        assert_eq!(outcomes[lane], oc, "outcome of lane {lane} vs compiled");
        assert_eq!(oc, oe, "outcome of lane {lane}: compiled vs event");
        assert_eq!(batch.now(lane), cc.now(), "end time of lane {lane}");
        assert_eq!(ev.now(), cc.now(), "scalar end times of lane {lane}");
        assert_eq!(
            batch.events_processed(lane),
            cc.events_fired(),
            "event count of lane {lane}"
        );
        let spec = batch.spec(lane).clone();
        for i in 0..spec.sbs.len() {
            let sb = SbId(i);
            assert_eq!(
                batch.cycles(lane, sb),
                cc.cycles(sb),
                "cycles of lane {lane} SB {i}"
            );
            assert_eq!(
                *batch.io_trace(lane, sb),
                *cc.io_trace(sb),
                "trace of lane {lane} SB {i}"
            );
            assert_eq!(
                batch.io_trace(lane, sb).digest(),
                cc.io_trace(sb).digest(),
                "trace digest of lane {lane} SB {i}"
            );
            assert_eq!(
                batch.trace_digest(lane, sb),
                cc.io_trace(sb).digest(),
                "streamed trace digest of lane {lane} SB {i}"
            );
            assert_eq!(
                cc.io_trace(sb).digest(),
                ev.io_trace(sb).digest(),
                "scalar trace digests of lane {lane} SB {i}"
            );
            assert_eq!(
                batch.clock_stats(lane, sb),
                cc.clock_stats(sb),
                "clock stats of lane {lane} SB {i}"
            );
            assert_eq!(
                batch.edge_times(lane, sb),
                cc.edge_times(sb),
                "edge times of lane {lane} SB {i}"
            );
            assert_eq!(
                batch.timing_violations(lane, sb),
                cc.timing_violations(sb),
                "violations of lane {lane} SB {i}"
            );
            assert_eq!(
                batch.dropped_words(lane, sb),
                cc.dropped_words(sb),
                "drops of lane {lane} SB {i}"
            );
        }
        for c in 0..spec.channels.len() {
            assert_eq!(
                batch.fifo_stats(lane, ChannelId(c)),
                cc.fifo_stats(ChannelId(c)),
                "FIFO stats of lane {lane} channel {c}"
            );
        }
        for r in 0..spec.rings.len() {
            let ring = RingId(r);
            for i in 0..spec.sbs.len() {
                let (nb, nc) = (batch.node(lane, SbId(i), ring), cc.node(SbId(i), ring));
                assert_eq!(nb.is_some(), nc.is_some(), "node presence {i}/{r}");
                if let (Some(nb), Some(nc)) = (nb, nc) {
                    assert_eq!(nb.phase(), nc.phase(), "node phase lane {lane} {i}/{r}");
                    assert_eq!(nb.passes(), nc.passes(), "node passes lane {lane} {i}/{r}");
                    assert_eq!(nb.stops(), nc.stops(), "node stops lane {lane} {i}/{r}");
                    assert_eq!(
                        nb.early_tokens(),
                        nc.early_tokens(),
                        "node early tokens lane {lane} {i}/{r}"
                    );
                }
            }
        }
        assert_eq!(
            batch.stopped_sbs(lane),
            cc.stopped_sbs(),
            "parked clocks of lane {lane}"
        );
    }
    batch
}

// --- deterministic lockstep and formation corners -----------------------

#[test]
fn uniform_pingpong_batch_stays_one_group() {
    let spec = pingpong_spec();
    let make = || mixer_builders(&spec, 100, &[1, 2, 3, 4]);
    let batch = assert_batch_matches_scalar(&make, 300);
    assert_eq!(batch.lanes(), 4);
    assert_eq!(
        batch.group_count(),
        1,
        "data-only lane differences must not split the group"
    );
    assert_eq!(batch.splits(), 0);
}

#[test]
fn single_lane_batch_matches_scalar() {
    let spec = producer_consumer_spec();
    let make = || mixer_builders(&spec, 100, &[7]);
    let batch = assert_batch_matches_scalar(&make, 150);
    assert_eq!(batch.group_count(), 1);
}

#[test]
fn sixty_five_lanes_split_over_the_lane_cap() {
    let spec = producer_consumer_spec();
    let salts: Vec<u64> = (0..65).collect();
    let make = || mixer_builders(&spec, 32, &salts);
    let batch = assert_batch_matches_scalar(&make, 60);
    assert_eq!(batch.lanes(), 65);
    assert_eq!(batch.group_count(), 2, "65 lanes over a 64-lane cap");
}

#[test]
fn mixed_spec_batch_forms_one_group_per_spec() {
    let a = pingpong_spec();
    let b = producer_consumer_spec();
    let make = || {
        let mut v = Vec::new();
        for lane in 0..6 {
            let spec = if lane % 2 == 0 { &a } else { &b };
            v.extend(mixer_builders(spec, 64, &[lane as u64]));
        }
        v
    };
    let batch = assert_batch_matches_scalar(&make, 120);
    assert_eq!(batch.group_count(), 2, "two distinct specs, two groups");
    assert_eq!(batch.spec(0), batch.spec(2));
    assert_ne!(batch.spec(0), batch.spec(1));
}

#[test]
fn mismatched_trace_limits_do_not_share_a_group() {
    let spec = producer_consumer_spec();
    let make = || {
        let mut v = mixer_builders(&spec, 32, &[1]);
        v.extend(mixer_builders(&spec, 64, &[2]));
        v
    };
    let batch = assert_batch_matches_scalar(&make, 100);
    assert_eq!(batch.group_count(), 2);
}

// --- adversarial control-flow schedules ---------------------------------

#[test]
fn late_tokens_and_clock_stops_batch_equivalently() {
    // Uncalibrated recycle registers make every token late: the
    // park/restart path runs on a permanent loop, shared across the
    // group's control state.
    for recycle in [1, 3, 6] {
        let spec = e1_spec_uncalibrated(recycle);
        let make = || mixer_builders(&spec, 80, &[11, 22, 33]);
        let batch = assert_batch_matches_scalar(&make, 100);
        assert_eq!(batch.group_count(), 1);
    }
}

#[test]
fn stretched_and_zero_delay_ring_wires_batch_equivalently() {
    let mut spec = producer_consumer_spec();
    spec.rings[0].delay_fwd = SimDuration::us(1);
    spec.rings[0].delay_back = SimDuration::us(1);
    assert_batch_matches_scalar(&|| mixer_builders(&spec, 100, &[1, 2, 3]), 150);
    spec.rings[0].delay_fwd = SimDuration::ZERO;
    spec.rings[0].delay_back = SimDuration::ZERO;
    assert_batch_matches_scalar(&|| mixer_builders(&spec, 100, &[1, 2, 3]), 150);
}

#[test]
fn chronic_timing_violations_corrupt_all_lanes_identically() {
    let mut spec = producer_consumer_spec();
    spec.sbs[0].logic_delay = SimDuration::ns(25);
    assert_batch_matches_scalar(&|| mixer_builders(&spec, 100, &[5, 6, 7, 8]), 120);
}

#[test]
fn starved_triangle_deadlocks_every_lane_equivalently() {
    let spec = synchro_tokens::scenarios::starved_triangle_spec();
    assert_batch_matches_scalar(&|| mixer_builders(&spec, 64, &[1, 2, 3]), 100);
}

/// E1 with its clock periods set to `ns` and its rings re-matched to
/// them. Equal or harmonic periods put rising phases of different SBs
/// on one instant, so the engine queues their edges instead of running
/// each inline with its phase.
fn e1_with_periods(ns: [u64; 3]) -> SystemSpec {
    let mut spec = e1_spec_uncalibrated(1);
    for (sb, p) in spec.sbs.iter_mut().zip(ns) {
        sb.period = SimDuration::ns(p);
    }
    matched_ring_recycles(&mut spec, 0);
    spec
}

#[test]
fn tied_rising_edges_batch_equivalently() {
    for ns in [[10, 10, 10], [10, 20, 20]] {
        let spec = e1_with_periods(ns);
        let batch = assert_batch_matches_scalar(&|| mixer_builders(&spec, 100, &[1, 2, 3]), 150);
        assert_eq!(batch.group_count(), 1, "periods {ns:?}");
        // Lanes that disagree on alpha's sends split on edges that tie
        // with the other SBs' rising phases.
        let gates = [u64::MAX, 0xFFFF_FFFF_FFFF_FFF0, 0x5555_5555_5555_5555];
        let batch = assert_batch_matches_scalar(&|| gated_builders(&spec, 100, &gates), 150);
        assert_eq!(batch.group_count(), 3, "periods {ns:?}");
    }
}

// --- divergence splits ---------------------------------------------------

#[test]
fn forty_output_sb_batches_and_splits_on_its_high_outputs() {
    let mut spec = SystemSpec::default();
    let fan = spec.add_sb("fan", SimDuration::ns(10));
    let sink = spec.add_sb("sink", SimDuration::ns(10));
    let ring = spec.add_ring(fan, sink, NodeParams::new(4, 12), SimDuration::ns(30));
    for _ in 0..40 {
        spec.add_channel(fan, sink, ring, 16, 4, SimDuration::ns(1));
    }
    // Lanes 0 and 1 agree throughout; lanes 2 and 3 agree with each
    // other on cycle 0, then differ on the high outputs from cycle 4.
    let gates = [u64::MAX, u64::MAX, 0xF0F0_F0F0_F0F0_F0F0, 0];
    let make = || {
        gates
            .iter()
            .map(|&g| {
                SystemBuilder::new(spec.clone())
                    .expect("spec must validate")
                    .with_trace_limit(100)
                    .with_logic(SbId(0), WideSource { gates: g, next: 0 })
                    .with_logic(SbId(1), MixerLogic::new(7))
            })
            .collect()
    };
    let batch = assert_batch_matches_scalar(&make, 200);
    assert_eq!(batch.lanes(), 4);
    assert_eq!(batch.group_count(), 3, "{{0, 1}}, {{2}} and {{3}}");
    assert_eq!(batch.splits(), 2);
}

#[test]
fn divergent_send_schedules_split_and_stay_byte_identical() {
    let spec = producer_consumer_spec();
    // Lanes 0, 1 and 4 share a schedule; 2, 3 and 5 each differ.
    let gates = [
        u64::MAX,
        u64::MAX,
        0xAAAA_AAAA_AAAA_AAAA,
        0x5555_5555_5555_5555,
        u64::MAX,
        0xF0F0_F0F0_F0F0_F0F0,
    ];
    let make = || gated_builders(&spec, 100, &gates);
    let batch = assert_batch_matches_scalar(&make, 150);
    assert_eq!(
        batch.group_count(),
        4,
        "four distinct schedules, four groups after the split"
    );
    assert_eq!(batch.splits(), batch.group_count() - 1);
    // The split must move the right per-lane logic state around, and
    // each split-off lane's snapshot is its decoded checkpoint, which
    // resumes to the scalar straight run's STCP bytes.
    st_conformance::witnesses!(["ST-EQ-004", "ST-CKPT-007"]);
    let compiled = make();
    for (lane, b) in compiled.into_iter().enumerate() {
        let mut cc = b.build_backend(Backend::Compiled);
        cc.run_until_cycles(150, MAX_TIME).expect("compiled run");
        let gb: &GatedSource = batch.logic(lane, SbId(0));
        let gc: &GatedSource = cc.logic(SbId(0));
        assert_eq!(gb, gc, "logic state of lane {lane}");
        let straight = cc.checkpoint().expect("scalar checkpoint");
        let snap = batch.snapshot(lane).expect("lane snapshot");
        assert_eq!(snap, batch.checkpoint(lane).unwrap().decode().unwrap());
        assert_eq!(snap.encode(), straight, "lane {lane} checkpoint vs scalar");
        let builder = make().swap_remove(lane);
        let resumed = AnySystem::resume_decoded(builder, &snap).expect("resume lane");
        assert_eq!(
            resumed.checkpoint().unwrap().to_canonical_bytes(),
            straight.to_canonical_bytes(),
            "lane {lane} resumed from its snapshot"
        );
    }
}

#[test]
fn all_lanes_diverge_on_the_first_edge() {
    let spec = producer_consumer_spec();
    // Odd lanes transmit on cycle 0, even lanes don't: the group
    // splits in two at the very first rising edge.
    let gates: Vec<u64> = (0..8u64)
        .map(|l| if l % 2 == 0 { u64::MAX << 1 } else { u64::MAX })
        .collect();
    let make = || gated_builders(&spec, 64, &gates);
    let batch = assert_batch_matches_scalar(&make, 100);
    assert_eq!(batch.group_count(), 2);
    assert_eq!(batch.splits(), batch.group_count() - 1);
}

#[test]
fn divergence_cascade_ends_with_every_lane_alone() {
    let spec = producer_consumer_spec();
    // Lane k starts transmitting at cycle k: one split per cycle until
    // all 6 lanes run in singleton groups.
    let gates: Vec<u64> = (0..6).map(|l| u64::MAX << l).collect();
    let make = || gated_builders(&spec, 64, &gates);
    let batch = assert_batch_matches_scalar(&make, 120);
    assert_eq!(batch.group_count(), 6, "cascade must fully unzip the batch");
    assert_eq!(batch.splits(), batch.group_count() - 1);
}

#[test]
fn divergence_on_a_consuming_edge_preserves_input_acks() {
    // The diverging SB pops a word on most enabled edges; the split
    // must still schedule that edge's Pop in every partition, or the
    // FIFO head stays occupied forever and the lanes drift off their
    // scalar runs (asserted via trace digests and FIFO pop counts).
    let spec = pingpong_spec();
    // Lanes 0 and 1 share a schedule; lanes 2 and 3 first differ at
    // cycles 16 and 44 — both edges where SB 1 holds a popped word
    // (its enabled windows cover cycles 14-25, 40-51, ... under this
    // token schedule).
    let gates = [u64::MAX, u64::MAX, !(1u64 << 16), !(1u64 << 44)];
    let make = || gated_mixer_builders(&spec, 150, &gates);
    let batch = assert_batch_matches_scalar(&make, 150);
    assert!(
        batch.group_count() >= 3,
        "distinct gate words must have split the batch"
    );
    assert_eq!(batch.splits(), batch.group_count() - 1);
    // The split must move the right per-lane logic state around.
    let compiled = make();
    for (lane, b) in compiled.into_iter().enumerate() {
        let mut cc = b.build_backend(Backend::Compiled);
        cc.run_until_cycles(150, MAX_TIME).expect("compiled run");
        let gb: &GatedMixer = batch.logic(lane, SbId(1));
        let gc: &GatedMixer = cc.logic(SbId(1));
        assert_eq!(gb, gc, "logic state of lane {lane}");
        assert!(gb.received > 0, "lane {lane} must actually consume words");
    }
}

// --- per-lane fault plans -------------------------------------------------

#[test]
fn per_lane_fault_plans_run_as_singleton_groups() {
    let spec = pingpong_spec();
    let classes = [FaultClass::Analog, FaultClass::Protocol];
    let make = || {
        let mut v = Vec::new();
        for (lane, class) in classes.iter().enumerate() {
            let plan = FaultPlan::generate(*class, &spec, 0xBAD + lane as u64);
            v.push(
                mixer_builders(&spec, 64, &[lane as u64])
                    .pop()
                    .expect("one builder")
                    .with_fault_plan(plan),
            );
        }
        // Two clean lanes ride along and must still share a group.
        v.extend(mixer_builders(&spec, 64, &[100, 101]));
        v
    };
    let batch = assert_batch_matches_scalar(&make, 120);
    assert_eq!(
        batch.group_count(),
        3,
        "two faulted singletons plus one shared clean group"
    );
}

// --- randomized differential sweeps --------------------------------------

/// A deterministic build recipe for a random GALS system (mirrors
/// `compiled_equiv.rs`). Selector fields index modulo the relevant
/// pool, so every recipe is valid.
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

/// The conformance clauses this suite is evidence for: per-lane
/// batched≡scalar byte identity, which in turn re-proves the traces'
/// cycle-count purity. The default budget sits below `compiled_equiv`'s
/// because each batched case runs two scalar backends per lane on top
/// of the batch itself.
const WITNESSED: &[&str] = &["ST-EQ-003", "ST-DET-001"];

/// Registers the suite's witness declaration for the lint.
#[test]
fn conformance_witnesses() {
    st_conformance::witnesses!(["ST-EQ-003", "ST-DET-001"]);
}

proptest! {
    #![proptest_config(st_testkit::case_budget(24, WITNESSED))]

    /// Batched ≡ scalar-compiled ≡ event on random systems with 1–4
    /// data-distinct lanes per batch: arbitrary topologies,
    /// plesiochronous periods, late/early tokens (random hold /
    /// recycle / initial-recycle), wire delays from zero to several
    /// cycles, and FIFO depths down to one.
    #[test]
    fn batched_matches_scalar_backends_on_random_specs(
        recipe in arb_recipe(),
        lanes in 1usize..4,
        seed in any::<u64>(),
    ) {
        let spec = build_spec(&recipe);
        prop_assert!(spec.validate().is_ok(), "recipe built an invalid spec");
        let salts: Vec<u64> = (0..lanes as u64).map(|l| seed ^ (l * 0xABCD)).collect();
        assert_batch_matches_scalar(&|| mixer_builders(&spec, 64, &salts), 120);
    }

    /// Random per-lane send schedules over a fixed pair: divergence
    /// splits at arbitrary cycles (including never, and cycle 0) must
    /// leave every lane byte-identical to its scalar runs.
    #[test]
    fn random_divergence_schedules_match_scalar_backends(
        gates in prop::collection::vec(any::<u64>(), 2..7),
    ) {
        let spec = producer_consumer_spec();
        assert_batch_matches_scalar(&|| gated_builders(&spec, 64, &gates), 100);
    }

    /// Every lane's streamed trace digest (folded as the group records
    /// each row) equals the digest of the lane's built trace and of its
    /// scalar compiled run: on SBs with no inputs or no outputs, at
    /// trace limits 0 (unlimited), 1 and the run length, and across
    /// divergence splits on recorded edges.
    #[test]
    fn streamed_lane_digests_match_built_and_scalar_traces(
        shape in 0usize..3,
        limit_sel in 0usize..3,
        gates in prop::collection::vec(any::<u64>(), 2..6),
        recipe in arb_recipe(),
    ) {
        const CYCLES: u64 = 80;
        let limit = [0, 1, CYCLES as usize][limit_sel];
        let spec = match shape {
            0 => producer_consumer_spec(),
            1 => pingpong_spec(),
            _ => build_spec(&recipe),
        };
        let make = || match shape {
            0 => gated_builders(&spec, limit, &gates),
            1 => gated_mixer_builders(&spec, limit, &gates),
            _ => mixer_builders(&spec, limit, &gates),
        };
        let mut batch = BatchedSystem::build(make())
            .unwrap_or_else(|_| panic!("builders unexpectedly outside the batched envelope"));
        batch.run_until_cycles(CYCLES, MAX_TIME);
        if shape < 2 && gates.windows(2).any(|w| w[0] != w[1]) {
            prop_assert!(batch.splits() > 0, "distinct send schedules must split");
        }
        for (lane, b) in make().into_iter().enumerate() {
            let mut cc = b.build_backend(Backend::Compiled);
            cc.run_until_cycles(CYCLES, MAX_TIME).expect("compiled runs");
            for i in 0..spec.sbs.len() {
                let sb = SbId(i);
                let built = batch.io_trace(lane, sb);
                prop_assert_eq!(&*built, cc.io_trace(sb), "trace of lane {} SB {}", lane, i);
                prop_assert_eq!(batch.trace_digest(lane, sb), built.digest());
                prop_assert_eq!(built.digest(), cc.io_trace(sb).digest());
            }
        }
    }

    /// Random per-lane send schedules on a *consuming* SB: splits land
    /// on edges with pending input acknowledgments at arbitrary
    /// cycles, and every lane must stay byte-identical to its scalar
    /// runs (FIFO pop counts and trace digests included).
    #[test]
    fn random_consuming_divergence_schedules_match_scalar_backends(
        gates in prop::collection::vec(any::<u64>(), 2..7),
    ) {
        let spec = pingpong_spec();
        assert_batch_matches_scalar(&|| gated_mixer_builders(&spec, 64, &gates), 100);
    }
}
