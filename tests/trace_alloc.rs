//! Allocation guards for both engines' hot paths.
//!
//! Every engine records one trace row per SB per rising edge, on the
//! innermost loop of every campaign. Rows land in the trace's flat
//! columns, so once the columns have grown the steady state must not
//! allocate per row. A whole E1 verdict run (the unit of the paper's
//! 16,200-configuration campaign) must also stay within a small fixed
//! allocation budget: lowering pre-sizes the pending-event queue, the
//! edge-time log and the FIFO move queues. Those reservations must not
//! scale with the trace limit, which callers may set far past the
//! cycles that run. A counting global allocator checks all three on the
//! compiled engine and the trace-limit bound on a batched group too. A
//! batched E1 verdict run allocates no more at 64 lanes than at 4, and
//! far fewer times than it pushes: lanes reuse their edge columns and
//! push columns.
//! It also checks that an E1 bypass verdict run on the event engine
//! allocates less than once per four SB-cycles once built (its wrappers
//! reuse their per-edge scratch), that a warm in-place checkpoint rewind
//! allocates nothing (the configuration hash is computed at most once
//! per engine), that reading a trace's digest, which folds its rows on
//! read, allocates nothing, and that decoding a checkpoint with a
//! corrupt element count reserves no more memory than the blob could
//! fill.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use st_sim::prelude::*;
use synchro_tokens::checkpoint::config_hash;
use synchro_tokens::scenarios::{
    build_e1_backend, build_e1_bypass, build_pingpong_backend, e1_spec, mixer_builder,
};
use synchro_tokens::{AnySystem, Backend, BatchedSystem, ChannelId, Checkpoint, RunOutcome, SbId};

/// Counts allocations made by threads that opted in.
struct Counting;

thread_local! {
    /// `(allocations, bytes)` while this thread counts; the tests run
    /// on parallel threads, so each counts only its own.
    static COUNT: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

fn count(bytes: usize) {
    let _ = COUNT.try_with(|c| {
        if let Some((n, b)) = c.get() {
            c.set(Some((n + 1, b + bytes as u64)));
        }
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations and bytes requested by this thread while running `f`.
fn measure(f: impl FnOnce()) -> (u64, u64) {
    COUNT.with(|c| c.set(Some((0, 0))));
    f();
    COUNT.with(|c| c.take()).expect("counting")
}

/// Allocations made by this thread while running `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    measure(f).0
}

#[test]
fn compiled_recording_does_not_allocate_per_row() {
    const WARMUP: u64 = 200;
    const MEASURED: u64 = 400;
    let budget = SimDuration::us(1000);
    // Unlimited trace: rows keep landing for the whole run.
    let mut sys = build_pingpong_backend(0, Backend::Compiled);
    sys.run_until_cycles(WARMUP, budget).expect("warm-up runs");
    let allocs = allocations_in(|| {
        sys.run_until_cycles(WARMUP + MEASURED, budget)
            .expect("measured run");
    });
    let sbs = sys.spec().sbs.len() as u64;
    for i in 0..sbs as usize {
        assert!(sys.io_trace(SbId(i)).len() as u64 >= WARMUP + MEASURED);
    }
    let sb_cycles = sbs * MEASURED;
    assert!(
        allocs < sb_cycles / 4,
        "{allocs} allocations over {sb_cycles} recorded SB-cycles"
    );
}

#[test]
fn trace_digest_allocates_nothing() {
    let mut sys = build_pingpong_backend(0, Backend::Compiled);
    sys.run_until_cycles(200, SimDuration::us(1000))
        .expect("runs");
    let trace = sys.io_trace(SbId(0));
    assert!(trace.len() >= 200);
    let mut digest = 0;
    let allocs = allocations_in(|| digest = trace.digest());
    assert_eq!(allocs, 0, "digest of {} rows allocated", trace.len());
    assert_ne!(digest, 0, "an empty trace's digest");
}

#[test]
fn compiled_e1_verdict_run_allocates_a_fixed_handful() {
    const CYCLES: u64 = 100;
    let mut sys = build_e1_backend(e1_spec(), 0, CYCLES as usize, Backend::Compiled);
    let allocs = allocations_in(|| {
        let out = sys
            .run_to_verdict(CYCLES, SimDuration::us(3000))
            .expect("verdict run");
        assert_eq!(out, RunOutcome::Reached);
    });
    assert!(
        allocs <= 16,
        "{allocs} allocations in one {CYCLES}-cycle E1 verdict run"
    );
}

#[test]
fn event_e1_bypass_verdict_run_allocates_under_one_per_four_sb_cycles() {
    // The E1 bypass slice runs only on the event engine. Its verdict run
    // starts right after build, as in the campaign.
    const CYCLES: u64 = 100;
    let spec = e1_spec();
    let sb_cycles = spec.sbs.len() as u64 * CYCLES;
    let mut sys = build_e1_bypass(spec, 3, CYCLES as usize);
    let allocs = allocations_in(|| {
        let out = sys
            .run_to_verdict(CYCLES, SimDuration::us(3000))
            .expect("verdict run");
        assert_eq!(out, RunOutcome::Reached);
    });
    assert!(
        allocs < sb_cycles / 4,
        "{allocs} allocations over {sb_cycles} SB-cycles of an E1 bypass verdict run"
    );
}

#[test]
fn lowering_reserves_nothing_for_a_huge_trace_limit() {
    // st-serve accepts any u32 `trace_cycles`; lowering must not reserve
    // trace memory for cycles that never run (at 8 bytes per edge time,
    // this limit would ask for ~34 GB per SB).
    let spec = e1_spec();
    let mut sys = None;
    let (_, bytes) = measure(|| {
        sys = Some(build_e1_backend(
            spec,
            0,
            u32::MAX as usize,
            Backend::Compiled,
        ));
    });
    assert!(bytes < 1 << 20, "lowering requested {bytes} bytes");
    let mut sys = sys.unwrap();
    let out = sys
        .run_until_cycles(20, SimDuration::us(3000))
        .expect("runs");
    assert_eq!(out, RunOutcome::Reached);
    assert!(sys.io_trace(SbId(0)).len() >= 20);
}

#[test]
fn batched_lowering_reserves_nothing_for_a_huge_trace_limit() {
    // A 64-lane group keeps every lane's trace words in one column per
    // SB; its pre-size is capped at 1024 rows, however large the limit.
    const LANES: u64 = 64;
    const CYCLES: u64 = 20;
    let spec = e1_spec();
    let builders = (0..LANES)
        .map(|seed| mixer_builder(&spec, seed, u32::MAX as usize))
        .collect();
    let mut batch = None;
    let (_, lowering) = measure(|| batch = Some(BatchedSystem::build(builders)));
    assert!(lowering < 1 << 20, "lowering requested {lowering} bytes");
    let mut batch = batch
        .unwrap()
        .unwrap_or_else(|_| panic!("E1 is inside the batched envelope"));
    let (_, running) = measure(|| {
        let outs = batch.run_until_cycles(CYCLES, SimDuration::us(3000));
        assert!(outs.iter().all(|o| *o == RunOutcome::Reached));
    });
    // 1024 rows of every lane's words on every SB, with room to spare
    // for the run's own state.
    let sbs = spec.sbs.len() as u64;
    let width: u64 = (0..spec.sbs.len())
        .map(|i| (spec.inputs_of(SbId(i)).count() + spec.outputs_of(SbId(i)).count()) as u64)
        .sum();
    let reserve = 1024 * (8 * sbs + 8 * width * LANES);
    assert!(
        running < 2 * reserve,
        "a {CYCLES}-cycle run requested {running} bytes (row reserve {reserve})"
    );
    for lane in 0..LANES as usize {
        assert!(batch.io_trace(lane, SbId(0)).len() >= CYCLES as usize);
    }
}

#[test]
fn batched_e1_verdict_run_allocates_nothing_per_lane_or_push() {
    // A lanes group ticks into columns it reuses across edges, and each
    // push column a FIFO gives back carries a later push's words, so a
    // verdict run allocates the same handful whatever its width, and
    // far fewer times than it pushes.
    const CYCLES: u64 = 100;
    let spec = e1_spec();
    let run = |lanes: u64| {
        let builders = (0..lanes)
            .map(|seed| mixer_builder(&spec, seed, CYCLES as usize))
            .collect();
        let mut batch = BatchedSystem::build(builders)
            .unwrap_or_else(|_| panic!("E1 is inside the batched envelope"));
        let allocs = allocations_in(|| {
            let outs = batch.run_to_verdict(CYCLES, SimDuration::us(3000));
            assert!(outs.iter().all(|o| *o == RunOutcome::Reached));
        });
        let pushes: u64 = (0..spec.channels.len())
            .map(|c| batch.fifo_stats(0, ChannelId(c)).0)
            .sum();
        (allocs, pushes)
    };
    // The first run warms whatever a process initializes once.
    run(64);
    let ((narrow, _), (wide, pushes)) = (run(4), run(64));
    assert!(
        wide <= narrow + 4,
        "64 lanes allocated {wide} times, 4 lanes {narrow} times"
    );
    assert!(
        wide * 4 < pushes,
        "{wide} allocations in a verdict run of {pushes} pushes"
    );
}

#[test]
fn warm_compiled_restore_allocates_nothing() {
    // A prefix-fork campaign rewinds one engine per variant. The
    // configuration hash the rewind checks is computed on the engine's
    // first rewind and kept, so a warm rewind hashes nothing and reuses
    // every buffer: zero allocations, as before hashing became lazy.
    let spec = e1_spec();
    let budget = SimDuration::us(3000);
    let mut sys = mixer_builder(&spec, 7, 100).build_backend(Backend::Compiled);
    sys.run_until_cycles(20, budget).expect("runs");
    let decoded = sys
        .checkpoint()
        .expect("checkpointable")
        .decode()
        .expect("decodes");
    sys.run_until_cycles(40, budget).expect("runs");
    sys.restore_decoded(&decoded).expect("restores");
    sys.run_until_cycles(40, budget).expect("runs");
    let allocs = allocations_in(|| sys.restore_decoded(&decoded).expect("restores"));
    assert_eq!(allocs, 0, "warm restore allocated {allocs} times");
}

#[test]
fn resume_hashes_the_configuration_once() {
    // Resuming checks the builder's hash against the checkpoint, then
    // lowers and restores; the restore must reuse the checked hash
    // rather than hash the lowered engine again.
    let spec = e1_spec();
    let mut sys = mixer_builder(&spec, 7, 100).build_backend(Backend::Compiled);
    sys.run_until_cycles(20, SimDuration::us(3000))
        .expect("runs");
    let decoded = sys
        .checkpoint()
        .expect("checkpointable")
        .decode()
        .expect("decodes");
    let hash = allocations_in(|| {
        config_hash(&spec, 7, 100, None);
    });
    assert!(hash > 0, "hashing encodes the configuration");
    let builder = mixer_builder(&spec, 7, 100);
    let mut fresh = None;
    let lower = allocations_in(|| fresh = Some(builder.build_backend(Backend::Compiled)));
    let mut fresh = fresh.expect("built");
    fresh.spec_hash();
    let restore = allocations_in(|| fresh.restore_decoded(&decoded).expect("restores"));
    let builder = mixer_builder(&spec, 7, 100);
    let resume = allocations_in(|| {
        AnySystem::resume_decoded(builder, &decoded).expect("resumes");
    });
    assert_eq!(
        resume,
        hash + lower + restore,
        "resume = one hash ({hash}) + lowering ({lower}) + restore ({restore})"
    );
}

#[test]
fn corrupt_checkpoint_count_reserves_no_more_than_the_blob() {
    // The payload starts after the 46-byte header. Its first count is
    // the kernel's signal count on the event backend (after a bool and
    // four u64s) and the clock-slot count on the compiled one (after
    // three u64s).
    for (backend, first_count) in [(Backend::Event, 46 + 33), (Backend::Compiled, 46 + 24)] {
        let mut sys = build_e1_backend(e1_spec(), 0, 100, backend);
        sys.run_until_cycles(20, SimDuration::us(3000))
            .expect("runs");
        let mut blob = sys
            .checkpoint()
            .expect("checkpointable")
            .to_canonical_bytes();
        blob[first_count..first_count + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let ckpt = Checkpoint::from_canonical_bytes(&blob).expect("header intact");
        let mut decoded = None;
        let (_, bytes) = measure(|| decoded = Some(ckpt.decode()));
        assert!(
            decoded.unwrap().is_err(),
            "{backend:?}: corrupt count decoded"
        );
        assert!(
            bytes <= blob.len() as u64,
            "{backend:?}: decoding a {} B blob requested {bytes} B",
            blob.len()
        );
    }
}
