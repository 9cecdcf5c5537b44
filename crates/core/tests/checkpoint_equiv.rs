//! Differential proof that checkpoint/resume is exact: on both
//! backends, over the canonical scenario specs and under active fault
//! plans, a run that is checkpointed at cycle `k`, serialized to
//! canonical bytes, deserialized and resumed must be **byte-identical**
//! to the same run left alone — same I/O trace rows and digests, cycle
//! counts, edge times, clock/FIFO/violation statistics, logic state and
//! end times. Also locks the canonical format (round-trip byte
//! stability), content addressing (independent identical runs hash the
//! same), the mismatch rejections, and the `run_until_cycles`-after-
//! resume edge cases (cycle 0, final cycle, expired budget): every such
//! call must error or complete identically, never hang.
//!
//! The case budget honours `PROPTEST_CASES` (CI runs a fixed reduced
//! budget; see `scripts/ci.sh`).

use st_sim::hash::fnv1a64;
use st_sim::prelude::*;
use st_testkit::prop::prelude::*;
use synchro_tokens::prelude::*;
use synchro_tokens::scenarios::{
    build_e1_backend, chain_spec, e1_spec, pingpong_spec, producer_consumer_spec, MixerLogic,
};
use synchro_tokens::FaultClass;
use synchro_tokens::{CanonError, Checkpoint, DecodedCheckpoint};

const MAX_TIME: SimDuration = SimDuration::us(3000);

fn pick_spec(which: usize) -> SystemSpec {
    match which % 4 {
        0 => pingpong_spec(),
        1 => producer_consumer_spec(),
        2 => chain_spec(3),
        _ => chain_spec(4),
    }
}

/// A fault plan whose effects live inside the engine (analog jitter or
/// protocol attacks), so checkpointing mid-run exercises the injector
/// and jitter-counter state. SEU plans are applied externally by
/// `run_with_plan` and are covered by the prefix-fork planner tests.
fn pick_plan(spec: &SystemSpec, which: usize, seed: u64) -> Option<FaultPlan> {
    match which % 3 {
        0 => None,
        1 => Some(FaultPlan::generate(FaultClass::Analog, spec, seed)),
        _ => Some(FaultPlan::generate(FaultClass::Protocol, spec, seed)),
    }
}

fn make_builder(spec: &SystemSpec, trace_limit: usize, plan: Option<&FaultPlan>) -> SystemBuilder {
    let mut b = SystemBuilder::new(spec.clone())
        .expect("scenario specs validate")
        .with_trace_limit(trace_limit);
    for i in 0..spec.sbs.len() {
        b = b.with_logic(SbId(i), MixerLogic::new(0x1000 * i as u64));
    }
    if let Some(p) = plan {
        b = b.with_fault_plan(p.clone());
    }
    b
}

/// Every externally observable byte of a finished run.
#[derive(Debug, PartialEq, Eq)]
struct Observables {
    now: SimTime,
    cycles: Vec<u64>,
    digests: Vec<u64>,
    traces: Vec<Vec<u8>>,
    clocks: Vec<(u64, u64)>,
    edges: Vec<Vec<SimTime>>,
    violations: Vec<u64>,
    drops: Vec<u64>,
    fifos: Vec<(u64, u64, u64, u64)>,
    mixers: Vec<(u64, u64)>,
}

fn observe(sys: &AnySystem) -> Observables {
    let n = sys.spec().sbs.len();
    let c = sys.spec().channels.len();
    Observables {
        now: sys.now(),
        cycles: (0..n).map(|i| sys.cycles(SbId(i))).collect(),
        digests: (0..n).map(|i| sys.io_trace(SbId(i)).digest()).collect(),
        traces: (0..n)
            .map(|i| sys.io_trace(SbId(i)).to_canonical_bytes())
            .collect(),
        clocks: (0..n).map(|i| sys.clock_stats(SbId(i))).collect(),
        edges: (0..n).map(|i| sys.edge_times(SbId(i)).to_vec()).collect(),
        violations: (0..n).map(|i| sys.timing_violations(SbId(i))).collect(),
        drops: (0..n).map(|i| sys.dropped_words(SbId(i))).collect(),
        fifos: (0..c).map(|i| sys.fifo_stats(ChannelId(i))).collect(),
        mixers: (0..n)
            .map(|i| sys.logic::<MixerLogic>(SbId(i)).state())
            .collect(),
    }
}

/// `snapshot`, an engine's in-process state, against `ckpt`, its
/// `checkpoint()` at the same point: the snapshot is the decoded blob,
/// encodes back to it, and an engine resumed from it re-checkpoints to
/// the same STCP bytes.
fn assert_snapshot_is_decoded(
    snapshot: &DecodedCheckpoint,
    ckpt: &Checkpoint,
    builder: SystemBuilder,
    what: &str,
) {
    assert_eq!(
        *snapshot,
        ckpt.decode().expect("a fresh blob decodes"),
        "{what}: snapshot() must equal checkpoint()?.decode()"
    );
    assert_eq!(
        snapshot.encode(),
        *ckpt,
        "{what}: checkpoint() must be snapshot() encoded"
    );
    let resumed = AnySystem::resume_decoded(builder, snapshot).expect("resume from a snapshot");
    assert_eq!(
        resumed
            .checkpoint()
            .expect("re-checkpoint")
            .to_canonical_bytes(),
        ckpt.to_canonical_bytes(),
        "{what}: resume_decoded(snapshot) must re-checkpoint to the straight run's bytes"
    );
}

/// The core differential: reference runs `k` then `k + extra` cycles in
/// two calls; candidate runs `k`, checkpoints, round-trips the blob,
/// resumes into a fresh engine and runs the same second call. Both
/// paths must agree on every observable, and the resumed engine's own
/// immediate re-checkpoint must reproduce the original blob.
fn assert_resume_equivalent(
    spec: &SystemSpec,
    plan: Option<&FaultPlan>,
    backend: Backend,
    trace_limit: usize,
    k: u64,
    extra: u64,
) {
    let total = k + extra;
    let mut reference = make_builder(spec, trace_limit, plan).build_backend(backend);
    reference.run_until_cycles(k, MAX_TIME).expect("ref run(k)");
    let ref_ckpt = reference.checkpoint().expect("ref checkpoint");
    reference
        .run_until_cycles(total, MAX_TIME)
        .expect("ref run(total)");

    let mut paused = make_builder(spec, trace_limit, plan).build_backend(backend);
    paused.run_until_cycles(k, MAX_TIME).expect("run(k)");
    let ckpt = paused.checkpoint().expect("checkpoint");
    assert_snapshot_is_decoded(
        &paused.snapshot().expect("snapshot"),
        &ckpt,
        make_builder(spec, trace_limit, plan),
        &format!("{backend:?} at cycle {k}"),
    );

    // Determinism: the independent reference run checkpoints to the
    // exact same bytes at the same point.
    assert_eq!(
        ckpt.to_canonical_bytes(),
        ref_ckpt.to_canonical_bytes(),
        "independent identical runs must checkpoint identically"
    );
    // Canonical round-trip is byte-stable.
    let bytes = ckpt.to_canonical_bytes();
    let ckpt = Checkpoint::from_canonical_bytes(&bytes).expect("round-trip");
    assert_eq!(ckpt.to_canonical_bytes(), bytes, "byte-stable re-encode");

    let mut resumed =
        AnySystem::resume(make_builder(spec, trace_limit, plan), &ckpt).expect("resume");
    // A resumed engine checkpoints straight back to the original blob:
    // restore captured *all* of the state the snapshot covers.
    assert_eq!(
        resumed
            .checkpoint()
            .expect("re-checkpoint")
            .to_canonical_bytes(),
        bytes,
        "checkpoint(resume(ckpt)) must reproduce ckpt"
    );
    resumed
        .run_until_cycles(total, MAX_TIME)
        .expect("resumed run(total)");
    assert_eq!(
        observe(&resumed),
        observe(&reference),
        "resumed continuation diverged from the straight run"
    );
}

/// The conformance clauses this suite is evidence for: resume≡straight
/// byte identity and the canonical checkpoint format's round-trip
/// stability + fail-closed mismatch rejection.
const WITNESSED: &[&str] = &["ST-EQ-004", "ST-CKPT-007"];

/// Registers the suite's witness declaration for the lint.
#[test]
fn conformance_witnesses() {
    st_conformance::witnesses!(["ST-EQ-004", "ST-CKPT-007"]);
}

proptest! {
    #![proptest_config(st_testkit::case_budget(24, WITNESSED))]

    /// Event backend: resume ≡ straight run, with and without active
    /// fault plans.
    #[test]
    fn event_resume_matches_straight_run(
        which_spec in 0usize..4,
        which_plan in 0usize..3,
        plan_seed in 0u64..1000,
        k in 1u64..40,
        extra in 1u64..40,
    ) {
        let spec = pick_spec(which_spec);
        let plan = pick_plan(&spec, which_plan, plan_seed);
        assert_resume_equivalent(&spec, plan.as_ref(), Backend::Event, 96, k, extra);
    }

    /// Compiled backend: resume ≡ straight run, with and without active
    /// fault plans.
    #[test]
    fn compiled_resume_matches_straight_run(
        which_spec in 0usize..4,
        which_plan in 0usize..3,
        plan_seed in 0u64..1000,
        k in 1u64..40,
        extra in 1u64..40,
    ) {
        let spec = pick_spec(which_spec);
        let plan = pick_plan(&spec, which_plan, plan_seed);
        assert_resume_equivalent(&spec, plan.as_ref(), Backend::Compiled, 96, k, extra);
    }

    /// Checkpoints are content-addressed: independent identical runs
    /// produce identical content hashes; a different kernel seed (part
    /// of the configuration) changes the spec hash.
    #[test]
    fn checkpoints_are_content_addressed(which_spec in 0usize..4, k in 1u64..30) {
        let spec = pick_spec(which_spec);
        let run = |seed: u64| {
            let mut sys = make_builder(&spec, 64, None)
                .with_seed(seed)
                .build_backend(Backend::Compiled);
            sys.run_until_cycles(k, MAX_TIME).unwrap();
            sys.checkpoint().unwrap()
        };
        let a = run(0);
        let b = run(0);
        prop_assert_eq!(a.content_hash(), b.content_hash());
        prop_assert_eq!(a.spec_hash(), b.spec_hash());
        let c = run(1);
        prop_assert_ne!(a.spec_hash(), c.spec_hash());
    }
}

#[test]
fn resume_rejects_mismatched_configurations() {
    let spec = pingpong_spec();
    let mut sys = make_builder(&spec, 64, None).build_backend(Backend::Compiled);
    sys.run_until_cycles(10, MAX_TIME).unwrap();
    let ckpt = sys.checkpoint().unwrap();

    // Different seed → different configuration hash.
    let err = AnySystem::resume(make_builder(&spec, 64, None).with_seed(9), &ckpt).unwrap_err();
    assert_eq!(err, CheckpointError::SpecMismatch);
    // Different trace limit is also part of the configuration.
    let err = AnySystem::resume(make_builder(&spec, 63, None), &ckpt).unwrap_err();
    assert_eq!(err, CheckpointError::SpecMismatch);
    // A fault plan the original never had.
    let plan = FaultPlan::generate(FaultClass::Analog, &spec, 5);
    let err = AnySystem::resume(make_builder(&spec, 64, Some(&plan)), &ckpt).unwrap_err();
    assert_eq!(err, CheckpointError::SpecMismatch);
    // Backend crossing is refused even with the right configuration.
    let err = System::resume(make_builder(&spec, 64, None), &ckpt).unwrap_err();
    assert_eq!(err, CheckpointError::BackendMismatch);
}

#[test]
fn bypass_and_observed_builds_refuse_to_checkpoint() {
    let spec = pingpong_spec();
    let mut sys = SystemBuilder::new(spec.clone())
        .unwrap()
        .bypass(SimDuration::ps(200))
        .build();
    sys.run_until_cycles(5, MAX_TIME).unwrap();
    assert!(matches!(
        sys.checkpoint(),
        Err(CheckpointError::Unsupported(_))
    ));
    assert!(matches!(
        sys.snapshot(),
        Err(CheckpointError::Unsupported(_))
    ));

    let mut observed = SystemBuilder::new(spec).unwrap().observe_nodes().build();
    observed.run_until_cycles(5, MAX_TIME).unwrap();
    assert!(matches!(
        observed.checkpoint(),
        Err(CheckpointError::Unsupported(_))
    ));
    assert!(matches!(
        observed.snapshot(),
        Err(CheckpointError::Unsupported(_))
    ));
}

#[test]
fn corrupt_blob_is_rejected_not_resumed() {
    let spec = pingpong_spec();
    let mut sys = make_builder(&spec, 64, None).build_backend(Backend::Compiled);
    sys.run_until_cycles(10, MAX_TIME).unwrap();
    let mut bytes = sys.checkpoint().unwrap().to_canonical_bytes();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF; // flip inside the payload

    // Header-level rejection is fine; if the header survived, resuming
    // the mangled payload must fail cleanly (decode error or shape
    // mismatch), never panic.
    if let Ok(ckpt) = Checkpoint::from_canonical_bytes(&bytes) {
        let _ = AnySystem::resume(make_builder(&spec, 64, None), &ckpt);
    }
}

/// Every strict prefix of a real payload, behind a header whose
/// `payload_len` says so, must decode to `Truncated` on both backends:
/// never a panic, never a value. The protocol plan puts injector
/// counters at the payload's tail, so the cut also lands inside them.
#[test]
fn truncated_payloads_are_rejected() {
    const HEADER: usize = 46;
    let spec = pingpong_spec();
    let plan = FaultPlan::generate(FaultClass::Protocol, &spec, 5);
    for backend in [Backend::Event, Backend::Compiled] {
        let mut sys = make_builder(&spec, 64, Some(&plan)).build_backend(backend);
        sys.run_until_cycles(30, MAX_TIME).unwrap();
        let blob = sys.checkpoint().unwrap().to_canonical_bytes();
        let (header, payload) = blob.split_at(HEADER);
        assert_eq!(header[38..46], (payload.len() as u64).to_le_bytes());
        let ckpt = Checkpoint::from_canonical_bytes(&blob).unwrap();
        assert!(
            ckpt.decode().is_ok(),
            "{backend:?}: the whole payload decodes"
        );
        for len in 0..payload.len() {
            let mut cut = header.to_vec();
            cut[38..46].copy_from_slice(&(len as u64).to_le_bytes());
            cut.extend_from_slice(&payload[..len]);
            let ckpt = Checkpoint::from_canonical_bytes(&cut).expect("header intact");
            assert_eq!(
                ckpt.decode().err(),
                Some(CheckpointError::Corrupt(CanonError::Truncated)),
                "{backend:?}: {len} of {} payload bytes",
                payload.len()
            );
        }
    }
}

/// One in-place edit of a compiled E1 checkpoint blob (see
/// [`resume_rejects_out_of_range_event_indices`] for the layout).
#[derive(Debug, Clone, Copy)]
enum Patch {
    /// Rewrite pending event 0 as `(tag, a, b)`.
    Event(u8, u32, u64),
    /// Set the last channel's occupancy bits.
    Occ(u64),
    /// Give the last channel one pending move of this stage.
    Pending(u32),
}

fn apply(blob: &[u8], patch: Patch) -> Vec<u8> {
    let mut bytes = blob.to_vec();
    // The payload ends with the last channel's occupancy(8), words(4 +
    // 4 * 8), move count(4) and moves(12 each), four u64 counters, and
    // one byte each for the absent jitter and injector counters.
    let end = bytes.len() - 2;
    assert_eq!(bytes[end..], [0, 0], "no fault state");
    assert_eq!(bytes[end - 36..end - 32], 0u32.to_le_bytes(), "no moves");
    assert_eq!(bytes[end - 72..end - 68], 4u32.to_le_bytes(), "depth 4");
    match patch {
        Patch::Event(tag, a, b) => {
            bytes[190] = tag;
            bytes[191..195].copy_from_slice(&a.to_le_bytes());
            bytes[195..203].copy_from_slice(&b.to_le_bytes());
        }
        Patch::Occ(occ) => bytes[end - 80..end - 72].copy_from_slice(&occ.to_le_bytes()),
        Patch::Pending(stage) => {
            bytes[end - 36..end - 32].copy_from_slice(&1u32.to_le_bytes());
            let mv = [&u64::MAX.to_le_bytes()[..], &stage.to_le_bytes()].concat();
            bytes.splice(end - 32..end - 32, mv);
            let len = u64::from_le_bytes(bytes[38..46].try_into().unwrap()) + 12;
            bytes[38..46].copy_from_slice(&len.to_le_bytes());
        }
    }
    bytes
}

/// Indices inside a well-formed payload are checked against the engine
/// before anything is restored. Each patch below leaves an E1 cycle-20
/// blob decodable but names an SB, node, channel, stage or occupancy
/// bit the 3-SB, 6-channel, depth-4 system lacks; resuming it must fail
/// closed, not panic on the first run. The in-range patch of the same
/// bytes beside each one must resume, so every rejection is the index
/// check's and not a mis-aimed patch.
#[test]
fn resume_rejects_out_of_range_event_indices() {
    let builder = || {
        let mut b = SystemBuilder::new(e1_spec())
            .expect("E1 spec is valid")
            .with_trace_limit(100);
        for i in 0..3 {
            b = b.with_logic(SbId(i), MixerLogic::new(0x1000 * i as u64));
        }
        b
    };
    let mut sys = builder().build_backend(Backend::Compiled);
    sys.run_until_cycles(20, MAX_TIME).unwrap();
    let blob = sys.checkpoint().unwrap().to_canonical_bytes();
    // 46 header bytes (payload length at 38..46); the payload's 3
    // clock-slot pairs end at 170, the event count at 174. Event 0 is
    // time(8) seq(8) tag(1) a(4) b(8): tag at 190, a at 191, b at 195.
    assert_eq!(blob[190], 3, "event 0 is a token toggle");
    assert!(u32::from_le_bytes(blob[191..195].try_into().unwrap()) < 3);
    let node0 = u64::from_le_bytes(blob[195..203].try_into().unwrap());
    // (out of range, in range): tags 0 Push, 1 Pop, 2 Move, 3 Token,
    // 4 Clken. Each SB has two nodes.
    let cases = [
        (Patch::Event(3, 99, node0), Patch::Event(3, 2, node0)),
        (Patch::Event(3, 0, 2), Patch::Event(3, 0, 1)),
        (Patch::Event(0, 6, 7), Patch::Event(0, 5, 7)),
        (Patch::Event(1, 6, 0), Patch::Event(1, 5, 0)),
        (Patch::Event(2, 6, 0), Patch::Event(2, 5, 0)),
        (Patch::Event(2, 5, 3), Patch::Event(2, 5, 2)),
        (Patch::Event(4, 3, 1), Patch::Event(4, 2, 1)),
        (Patch::Occ(1 << 4), Patch::Occ(1 << 3)),
        (Patch::Pending(3), Patch::Pending(2)),
    ];
    for (bad, good) in cases {
        let resume = |patch| {
            let ckpt =
                Checkpoint::from_canonical_bytes(&apply(&blob, patch)).expect("still well-formed");
            AnySystem::resume(builder(), &ckpt).err()
        };
        assert_eq!(resume(bad), Some(CheckpointError::SpecMismatch), "{bad:?}");
        assert_eq!(resume(good), None, "{good:?}");
    }
}

// --- `run_until_cycles` after resume: edge cases (never hang) -----------

#[test]
fn resume_at_cycle_zero_matches_fresh_build() {
    for backend in [Backend::Event, Backend::Compiled] {
        let spec = pingpong_spec();
        let fresh = make_builder(&spec, 64, None).build_backend(backend);
        let ckpt = fresh.checkpoint().expect("checkpoint before any run");
        assert_eq!(ckpt.cycle(), 0);
        let mut resumed = AnySystem::resume(make_builder(&spec, 64, None), &ckpt).unwrap();
        let mut reference = make_builder(&spec, 64, None).build_backend(backend);
        resumed.run_until_cycles(30, MAX_TIME).unwrap();
        reference.run_until_cycles(30, MAX_TIME).unwrap();
        assert_eq!(observe(&resumed), observe(&reference));
    }
}

#[test]
fn resume_at_or_past_the_target_cycle_returns_immediately() {
    for backend in [Backend::Event, Backend::Compiled] {
        let spec = pingpong_spec();
        let mut sys = make_builder(&spec, 64, None).build_backend(backend);
        sys.run_until_cycles(25, MAX_TIME).unwrap();
        let ckpt = sys.checkpoint().unwrap();
        let mut resumed = AnySystem::resume(make_builder(&spec, 64, None), &ckpt).unwrap();
        // Target at/below the checkpoint cycle: must complete instantly
        // without advancing time.
        let before = resumed.now();
        let out = resumed.run_until_cycles(ckpt.cycle(), MAX_TIME).unwrap();
        assert_eq!(out, RunOutcome::Reached);
        assert_eq!(resumed.now(), before, "no time may pass");
        let out = resumed.run_until_cycles(1, MAX_TIME).unwrap();
        assert_eq!(out, RunOutcome::Reached);
        assert_eq!(resumed.now(), before);
    }
}

// --- batched lane extraction --------------------------------------------

/// One builder per salt over `spec`, mixers on every SB — same-spec
/// lanes share a lockstep group while their data columns differ.
fn batch_builders(spec: &SystemSpec, trace_limit: usize, salts: &[u64]) -> Vec<SystemBuilder> {
    salts
        .iter()
        .map(|&salt| {
            let mut b = SystemBuilder::new(spec.clone())
                .expect("scenario specs validate")
                .with_trace_limit(trace_limit);
            for i in 0..spec.sbs.len() {
                b = b.with_logic(
                    SbId(i),
                    MixerLogic::new(salt.wrapping_add(0x1000 * i as u64)),
                );
            }
            b
        })
        .collect()
}

/// A lane extracted from a shared lockstep group checkpoints to the
/// exact bytes the scalar compiled engine produces at the same point
/// (the drivers are verbatim-identical, so the full dynamic state —
/// heap, wall clock, traces, streamed digests — must agree), and a
/// scalar engine resumed from the batched blob continues byte-identical
/// to the scalar straight run.
#[test]
fn batched_lane_checkpoint_matches_scalar_and_resumes() {
    let spec = pingpong_spec();
    let salts = [3u64, 88, 1234];
    let (k, total) = (18u64, 45u64);

    let mut batch =
        BatchedSystem::build(batch_builders(&spec, 96, &salts)).expect("supported batch");
    assert_eq!(batch.group_count(), 1, "lanes must share one group");
    for out in batch.run_until_cycles(k, MAX_TIME) {
        assert_eq!(out, RunOutcome::Reached);
    }

    for (lane, &salt) in salts.iter().enumerate() {
        let builder = || {
            let mut bs = batch_builders(&spec, 96, &[salt]);
            bs.pop().unwrap()
        };
        let mut scalar = builder().build_backend(Backend::Compiled);
        scalar.run_until_cycles(k, MAX_TIME).unwrap();
        let scalar_ckpt = scalar.checkpoint().expect("scalar checkpoint");
        let lane_ckpt = batch.checkpoint(lane).expect("lane checkpoint");
        assert_eq!(
            lane_ckpt.to_canonical_bytes(),
            scalar_ckpt.to_canonical_bytes(),
            "lane {lane} checkpoint must be byte-equal to the scalar engine's"
        );
        assert_snapshot_is_decoded(
            &batch.snapshot(lane).expect("lane snapshot"),
            &lane_ckpt,
            builder(),
            &format!("shared-group lane {lane}"),
        );
        assert_eq!(batch.spec_hash(lane), lane_ckpt.spec_hash());
        // Streamed per-edge digests equal the scalar post-hoc digests.
        for sb in 0..spec.sbs.len() {
            assert_eq!(
                batch.trace_digest(lane, SbId(sb)),
                scalar.io_trace(SbId(sb)).digest(),
                "lane {lane} sb {sb} streamed digest"
            );
        }
        // Resume from the batched blob; continue beside the straight run.
        scalar.run_until_cycles(total, MAX_TIME).unwrap();
        let mut resumed = AnySystem::resume(builder(), &lane_ckpt).expect("resume from lane");
        resumed.run_until_cycles(total, MAX_TIME).unwrap();
        assert_eq!(
            observe(&resumed),
            observe(&scalar),
            "lane {lane} resumed continuation diverged"
        );
    }
}

/// Checkpointing a lane that was isolated out of its group mid-run (an
/// SEU flip through `node_mut` forces the split) still matches the
/// scalar engine driven through the identical call sequence, and both
/// the struck and the untouched sibling lanes resume correctly —
/// including under an expired budget, which must time out, not hang.
#[test]
fn batched_split_lane_checkpoint_matches_scalar() {
    st_conformance::witnesses!(["ST-EQ-004", "ST-CKPT-007"]);
    let spec = pingpong_spec();
    let salts = [7u64, 7, 21];
    let (k, total) = (12u64, 40u64);
    let struck = 1usize;
    let ring = RingId(0);
    let holder = spec.rings[ring.0].holder;

    let mut batch =
        BatchedSystem::build(batch_builders(&spec, 96, &salts)).expect("supported batch");
    batch.run_until_cycles(k, MAX_TIME);
    batch
        .node_mut(struck, holder, ring)
        .expect("ring node exists")
        .seu_flip_token_latch();
    assert!(batch.group_count() > 1, "the flip must split the group");
    batch.run_until_cycles(total, MAX_TIME);

    for (lane, &salt) in salts.iter().enumerate() {
        let builder = || {
            let mut bs = batch_builders(&spec, 96, &[salt]);
            bs.pop().unwrap()
        };
        let mut scalar = builder().build_backend(Backend::Compiled);
        scalar.run_until_cycles(k, MAX_TIME).unwrap();
        if lane == struck {
            scalar
                .node_mut(holder, ring)
                .expect("ring node exists")
                .seu_flip_token_latch();
        }
        scalar.run_until_cycles(total, MAX_TIME).unwrap();
        let lane_ckpt = batch.checkpoint(lane).expect("post-split lane checkpoint");
        assert_eq!(
            lane_ckpt.to_canonical_bytes(),
            scalar
                .checkpoint()
                .expect("scalar checkpoint")
                .to_canonical_bytes(),
            "lane {lane} post-split checkpoint must match scalar"
        );
        assert_snapshot_is_decoded(
            &batch.snapshot(lane).expect("post-split lane snapshot"),
            &lane_ckpt,
            builder(),
            &format!("post-split lane {lane}"),
        );
        for sb in 0..spec.sbs.len() {
            assert_eq!(
                batch.trace_digest(lane, SbId(sb)),
                scalar.io_trace(SbId(sb)).digest(),
                "lane {lane} sb {sb} post-split streamed digest"
            );
        }
        // Expired budget on a resumed engine: TimedOut, never a hang.
        let mut resumed = AnySystem::resume(builder(), &lane_ckpt).expect("resume");
        let out = resumed
            .run_until_cycles(lane_ckpt.cycle() + 500, SimDuration::ZERO)
            .unwrap();
        assert_eq!(out, RunOutcome::TimedOut);
    }
}

#[test]
fn resume_with_expired_budget_times_out_cleanly() {
    for backend in [Backend::Event, Backend::Compiled] {
        let spec = pingpong_spec();
        let mut sys = make_builder(&spec, 64, None).build_backend(backend);
        sys.run_until_cycles(10, MAX_TIME).unwrap();
        let ckpt = sys.checkpoint().unwrap();
        let mut resumed = AnySystem::resume(make_builder(&spec, 64, None), &ckpt).unwrap();
        // Zero remaining budget and an unreached target: TimedOut, not
        // a hang and not a lie about reaching the cycle count.
        let out = resumed
            .run_until_cycles(ckpt.cycle() + 1000, SimDuration::ZERO)
            .unwrap();
        assert_eq!(out, RunOutcome::TimedOut);
    }
}

/// In-place rewind (`restore_decoded` into a *dirty* engine) must be
/// indistinguishable from a fresh `resume_decoded`: a warm engine that
/// already ran past the checkpoint — or ran a different variant — is
/// fully overwritten, down to re-checkpoint byte equality. This is the
/// contract the prefix-fork sweep's per-worker engine reuse stands on.
#[test]
fn in_place_restore_into_dirty_engine_is_exact() {
    let spec = pick_spec(0);
    for which in 0..3 {
        let plan = pick_plan(&spec, which, 0xD1A7 + which as u64);
        let (k, total) = (14u64, 40u64);

        // Reference: straight run checkpointed at k, resumed fresh.
        let mut reference = make_builder(&spec, 64, plan.as_ref()).build_backend(Backend::Compiled);
        assert_eq!(reference.backend_kind(), BackendKind::Compiled);
        reference.run_until_cycles(k, MAX_TIME).unwrap();
        let ckpt = reference.checkpoint().unwrap().decode().unwrap();
        let mut fresh =
            AnySystem::resume_decoded(make_builder(&spec, 64, plan.as_ref()), &ckpt).unwrap();
        fresh.run_until_cycles(total, MAX_TIME).unwrap();
        let want = observe(&fresh);
        let want_blob = fresh.checkpoint().unwrap().to_canonical_bytes();

        // Dirty engine: same configuration, but already run far past k
        // (trace full, heap and counters hot) before the rewind.
        let mut dirty = make_builder(&spec, 64, plan.as_ref()).build_backend(Backend::Compiled);
        dirty.run_until_cycles(total + 13, MAX_TIME).unwrap();
        dirty.restore_decoded(&ckpt).expect("in-place restore");
        dirty.run_until_cycles(total, MAX_TIME).unwrap();
        assert_eq!(observe(&dirty), want, "plan variant {which}");
        assert_eq!(
            dirty.checkpoint().unwrap().to_canonical_bytes(),
            want_blob,
            "plan variant {which}: re-checkpoint bytes"
        );

        // Rewinding twice from the same decoded blob is idempotent.
        dirty.restore_decoded(&ckpt).expect("second restore");
        dirty.run_until_cycles(total, MAX_TIME).unwrap();
        assert_eq!(observe(&dirty), want, "plan variant {which}: re-restore");
    }
}

/// A cached engine whose configuration differs from the checkpoint's
/// must fail the in-place restore closed (and an event-backed engine
/// must report it cannot restore in place at all).
#[test]
fn in_place_restore_rejects_mismatched_engine() {
    let spec = pingpong_spec();
    let mut sys = make_builder(&spec, 64, None).build_backend(Backend::Compiled);
    sys.run_until_cycles(9, MAX_TIME).unwrap();
    let ckpt = sys.checkpoint().unwrap().decode().unwrap();

    // Different seed ⇒ different configuration hash.
    let mut other = make_builder(&spec, 64, None)
        .with_seed(99)
        .build_backend(Backend::Compiled);
    assert!(matches!(
        other.restore_decoded(&ckpt),
        Err(CheckpointError::SpecMismatch)
    ));

    // Event backend: in-place restore is unsupported, fresh resume works.
    let mut ev = make_builder(&spec, 64, None).build_backend(Backend::Event);
    assert!(matches!(
        ev.restore_decoded(&ckpt),
        Err(CheckpointError::Unsupported(_))
    ));
}

// --- pinned STCP bytes ----------------------------------------------------

/// `fnv1a64` of a checkpoint's canonical bytes. The suites above only
/// compare engines and re-encodes against each other; these pins hold
/// the absolute bytes, so an engine-internal change (e.g. how pending
/// events are stored) cannot silently move the STCP v1 format.
fn blob_hash(ckpt: &Checkpoint) -> u64 {
    fnv1a64(&ckpt.to_canonical_bytes())
}

/// E1 checkpoints at cycles 20 and 60 (100-cycle trace, the campaign's
/// nominal configuration), on each backend.
#[test]
fn e1_compiled_checkpoint_bytes_are_pinned() {
    let pins = [
        (
            Backend::Compiled,
            BackendKind::Compiled,
            (0x1e75_7c6a_957d_c737, 0xba60_77ae_ceb9_7082),
        ),
        (
            Backend::Event,
            BackendKind::Event,
            (0xc4ab_5fe7_dd74_3080, 0xd6a5_1be8_585b_d072),
        ),
    ];
    for (backend, kind, want) in pins {
        let mut sys = build_e1_backend(e1_spec(), 0, 100, backend);
        assert_eq!(sys.backend_kind(), kind);
        sys.run_until_cycles(20, MAX_TIME).unwrap();
        let at20 = blob_hash(&sys.checkpoint().unwrap());
        sys.run_until_cycles(60, MAX_TIME).unwrap();
        let at60 = blob_hash(&sys.checkpoint().unwrap());
        assert_eq!(
            (at20, at60),
            want,
            "{kind:?} E1 checkpoint bytes moved: {at20:#018x} {at60:#018x}"
        );
    }
}

/// A protocol-fault ping-pong checkpointed at cycles 10, 30 and 50 on
/// each backend, all blobs hashed together: the only pin whose blobs
/// carry the fault injector's occurrence counters.
#[test]
fn protocol_pingpong_checkpoint_bytes_are_pinned() {
    let spec = pingpong_spec();
    let plan = FaultPlan::generate(FaultClass::Protocol, &spec, 5);
    assert!(!plan.protocol.is_empty(), "the plan must inject");
    let pins = [
        (
            Backend::Compiled,
            BackendKind::Compiled,
            0x6aab_dd23_ef75_d68a,
        ),
        (Backend::Event, BackendKind::Event, 0x4243_12ff_b491_fe4e),
    ];
    for (backend, kind, want) in pins {
        let mut sys = make_builder(&spec, 64, Some(&plan)).build_backend(backend);
        assert_eq!(sys.backend_kind(), kind);
        let mut blobs = Vec::new();
        for cycle in [10, 30, 50] {
            sys.run_until_cycles(cycle, MAX_TIME).unwrap();
            blobs.extend(sys.checkpoint().unwrap().to_canonical_bytes());
        }
        let got = fnv1a64(&blobs);
        assert_eq!(
            got, want,
            "{kind:?} protocol checkpoint bytes moved: {got:#018x}"
        );
    }
}

/// Every lane of a batch checkpointed after an SEU flip split its group.
#[test]
fn split_batch_lane_checkpoint_bytes_are_pinned() {
    let spec = pingpong_spec();
    let mut batch =
        BatchedSystem::build(batch_builders(&spec, 96, &[7, 7, 21])).expect("supported batch");
    batch.run_until_cycles(12, MAX_TIME);
    let holder = spec.rings[0].holder;
    batch
        .node_mut(1, holder, RingId(0))
        .expect("ring node exists")
        .seu_flip_token_latch();
    assert!(batch.group_count() > 1, "the flip must split the group");
    batch.run_until_cycles(40, MAX_TIME);
    let got: Vec<u64> = (0..3)
        .map(|lane| blob_hash(&batch.checkpoint(lane).unwrap()))
        .collect();
    assert_eq!(
        got,
        [
            0x8d6b_bdfc_d0ae_b426,
            0x66b7_c29d_2a92_14a9,
            0x903d_81d7_9764_f5b1
        ],
        "split lane checkpoint bytes moved: {got:#018x?}"
    );
}

/// A chaos-jittered ping-pong checkpointed every 4.999 ns for 1.2 µs
/// (~120 cycles), all blobs hashed together. Jittered rising edges land
/// after their phase boundary, so some dumps carry pending rising-edge
/// slots; token jitter far past the recycle slack stops clocks, so
/// others carry parked clocks and their in-flight tokens.
#[test]
fn chaos_pingpong_checkpoint_bytes_are_pinned() {
    let spec = pingpong_spec();
    let plan = FaultPlan {
        seed: 7,
        analog: AnalogFault {
            clock_jitter: SimDuration::ps(900),
            token_jitter: SimDuration::ns(60),
            data_jitter: SimDuration::ps(400),
            ..AnalogFault::default()
        },
        protocol: Vec::new(),
        seu: Vec::new(),
    };
    let mut sys = make_builder(&spec, 64, Some(&plan)).build_backend(Backend::Compiled);
    assert_eq!(sys.backend_kind(), BackendKind::Compiled);
    let mut blobs = Vec::new();
    for _ in 0..240 {
        sys.run_for(SimDuration::ps(4999)).unwrap();
        blobs.extend(sys.checkpoint().unwrap().to_canonical_bytes());
    }
    let got = fnv1a64(&blobs);
    assert_eq!(
        got, 0xc26e_b538_2a14_29a1,
        "chaos checkpoint bytes moved: {got:#018x}"
    );
}

/// Clock jitter beyond a clock period can fire an SB's next rising
/// edge while the previous one is still in flight. The engine keeps one
/// rising edge per SB in flight (the new one replaces it), which the
/// pinned end states below lock. The checkpoint format's one edge slot
/// per SB then holds every pending edge, so a checkpoint taken at any
/// point resumes exactly like the run it was taken from.
#[test]
fn jitter_past_a_clock_period_keeps_one_pending_edge_per_sb() {
    let spec = pingpong_spec();
    // (jitter ns, end time ns, cycles per SB, trace digests per SB)
    let pins = [
        (
            15,
            1200,
            [78, 74],
            [0x2847_b8c6_dfa4_13f7, 0x70b7_7e43_fa57_8d72],
        ),
        (
            35,
            2400,
            [65, 60],
            [0x2847_b8c6_dfa4_13f7, 0x6e4b_776c_50d1_4bfe],
        ),
    ];
    for (jitter, end, cycles, digests) in pins {
        let plan = FaultPlan {
            seed: 3,
            analog: AnalogFault {
                clock_jitter: SimDuration::ns(jitter),
                ..AnalogFault::default()
            },
            protocol: Vec::new(),
            seu: Vec::new(),
        };
        let build = || make_builder(&spec, 64, Some(&plan));
        let mut sys = build().build_backend(Backend::Compiled);
        sys.run_until_cycles(60, MAX_TIME).unwrap();
        let end_state = observe(&sys);
        assert_eq!(
            end_state.now,
            SimTime::ZERO + SimDuration::ns(end),
            "{jitter} ns"
        );
        assert_eq!(end_state.cycles, cycles, "{jitter} ns");
        assert_eq!(end_state.digests, digests, "{jitter} ns");
        let stepped = |steps| {
            let mut sys = build().build_backend(Backend::Compiled);
            for _ in 0..steps {
                sys.run_for(SimDuration::ps(9999)).unwrap();
            }
            sys
        };
        for steps in 1..=40 {
            let ckpt = stepped(steps).checkpoint().unwrap();
            let mut resumed = AnySystem::resume(build(), &ckpt).unwrap();
            let mut reference = stepped(steps);
            resumed.run_until_cycles(60, MAX_TIME).unwrap();
            reference.run_until_cycles(60, MAX_TIME).unwrap();
            assert!(
                observe(&resumed) == observe(&reference),
                "{jitter} ns jitter, resumed after {steps} steps"
            );
        }
    }
}
