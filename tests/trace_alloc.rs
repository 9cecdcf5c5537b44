//! Allocation guards for the compiled engine's hot path.
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
//! compiled engine, and checks that decoding a checkpoint with a corrupt
//! element count reserves no more memory than the blob could fill.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use st_sim::prelude::*;
use synchro_tokens::scenarios::{build_e1_backend, build_pingpong_backend, e1_spec};
use synchro_tokens::{Backend, Checkpoint, RunOutcome, SbId};

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
