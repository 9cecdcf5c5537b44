//! Decode hardening for every byte format the workspace reads back:
//! STIO traces, STCP checkpoints (down to the logic-state and
//! jitter-counter blobs nested in their payloads), STPF peer frames and
//! the result store's disk entries.
//!
//! Each pinned golden input is fed every strict prefix and a fixed-seed
//! set of mutations: bit flips, 32- and 64-bit fields patched to 0,
//! `u32::MAX` and 2^61, and fields rewritten by one (a length off by
//! one). Every result must be an error (a miss, for the store) or a
//! value that re-encodes to exactly the bytes it was decoded from. No
//! input may panic, and no single allocation made while decoding may
//! be larger than the input (a per-thread allocator records the largest
//! request), up to the documented slack of [`FIXED_ALLOC`] and
//! [`TRACE_EXPANSION`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use st_conformance::{content_key16, WitnessLog};
use st_fabric::wire::Frame;
use st_serve::hash::ContentKey;
use st_serve::store::ResultStore;
use st_sim::prelude::*;
use st_sim::SimRng;
use synchro_tokens::scenarios::{chain_spec, e1_spec, pingpong_spec, MixerLogic};
use synchro_tokens::{
    AnalogFault, AnySystem, Backend, BatchedSystem, Checkpoint, FaultClass, FaultPlan,
    PipeTransform, RingId, SbId, SbIoTrace, SequenceSource, SinkCollect, SystemBuilder, SystemSpec,
};

/// Records the largest single allocation of threads that opted in.
struct Peak;

thread_local! {
    static PEAK: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note(bytes: usize) {
    let _ = PEAK.try_with(|p| {
        if let Some(max) = p.get() {
            p.set(Some(max.max(bytes)));
        }
    });
}

unsafe impl GlobalAlloc for Peak {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Peak = Peak;

/// `f`'s result and the largest single allocation it made.
fn peak<R>(f: impl FnOnce() -> R) -> (R, usize) {
    PEAK.with(|p| p.set(Some(0)));
    let out = f();
    (out, PEAK.with(|p| p.take()).expect("recording"))
}

/// Allocations that do not grow with the input are allowed past its
/// length: a store entry's path, or a vector's first growth step.
const FIXED_ALLOC: usize = 256;

/// How far one allocation may outgrow an input that carries I/O traces
/// (STIO, STCP). A trace cell takes one wire byte at least and decodes
/// into a 16-byte `Option<u64>`, so a decoded trace legitimately
/// outweighs its bytes. Memory must still grow with the input, never
/// with a count it claims; `stio_counts_reserve_no_more_than_the_blob`
/// holds the reservations themselves to the input length.
const TRACE_EXPANSION: usize = 16;

/// Seeded mutations per golden input.
const MUTATIONS: usize = 300;

/// `input` itself, every strict prefix, then [`MUTATIONS`] seeded
/// mutations.
fn hostile_inputs(input: &[u8], seed: u64) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = (0..=input.len())
        .rev()
        .map(|n| input[..n].to_vec())
        .collect();
    let mut rng = SimRng::seed_from_u64(seed);
    for _ in 0..MUTATIONS {
        let mut m = input.to_vec();
        let width = [4, 8][rng.below(2) as usize];
        if m.len() < width {
            continue;
        }
        let at = rng.below((m.len() - width + 1) as u64) as usize;
        let field = &mut m[at..at + width];
        let old = field
            .iter()
            .rev()
            .fold(0u64, |v, &b| (v << 8) | u64::from(b));
        let new = match rng.below(6) {
            0 => {
                let bit = rng.below(8 * width as u64);
                old ^ (1 << bit)
            }
            1 => 0,
            2 => u64::from(u32::MAX),
            3 => 1 << 61,
            4 => old.wrapping_add(1),
            _ => old.wrapping_sub(1),
        };
        field.copy_from_slice(&new.to_le_bytes()[..width]);
        out.push(m);
    }
    out
}

/// Runs `decode`, then `reencode`, over every hostile input derived
/// from `golden`: each must fail, or give back bytes equal to its
/// input, without panicking. Only `decode` is measured: no allocation
/// in it may exceed `expansion` times the input (or [`FIXED_ALLOC`]).
fn harden<T>(
    name: &str,
    golden: &[u8],
    expansion: usize,
    seed: u64,
    decode: impl Fn(&[u8]) -> Option<T>,
    reencode: impl Fn(T) -> Option<Vec<u8>>,
) {
    let mut accepted = 0;
    for input in hostile_inputs(golden, seed) {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let (decoded, largest) = peak(|| decode(&input));
            (decoded.and_then(&reencode), largest)
        }));
        let Ok((bytes, largest)) = outcome else {
            panic!("{name}: decoding panicked on {}", hex(&input));
        };
        assert!(
            largest <= (expansion * input.len()).max(FIXED_ALLOC),
            "{name}: decoding {} B allocated {largest} B at once: {}",
            input.len(),
            hex(&input)
        );
        if let Some(bytes) = bytes {
            if let Some(at) =
                (0..input.len().max(bytes.len())).find(|&i| bytes.get(i) != input.get(i))
            {
                let window = |b: &[u8]| hex(&b[at.min(b.len())..(at + 24).min(b.len())]);
                panic!(
                    "{name}: accepted {} B that re-encode to {} B, first differing at {at}: {} vs {}",
                    input.len(),
                    bytes.len(),
                    window(&input),
                    window(&bytes)
                );
            }
            accepted += 1;
        }
    }
    assert!(accepted >= 1, "{name}: the golden itself was rejected");
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

// --- STIO -----------------------------------------------------------------

/// The STIO goldens of `crates/core/tests/iotrace_canon.rs`.
const STIO_GOLDENS: [&str; 4] = [
    "5354494f01000000000000000006000000000000000000000000000000020000000001\
     0000adde0000000001000000015a5a0000000000000100000000000000020000000103\
     0000000000000000010000000002000000000000000200000000000100000001585a00\
     0000000000030000000000000002000000010900000000000000010300adde00000000\
     0100000000040000000000000002000000000001000000015e5a000000000000050000\
     000000000002000000010f00000000000000000100000000",
    "5354494f01100000000000000003000000000000000700000000000000010000000101\
     00000000000000000000000900000000000000030000000001ffffffffffffffff0001\
     000000010000000000000000090000000000000000000000040000000000012a000000\
     00000000010000000000000080",
    "5354494f01000000000000000004000000000000000000000000000000000000000000\
     0000010000000000000000000000000000000200000000000000000000000000000003\
     000000000000000000000000000000",
    "5354494f01030000000000000003000000000000000000000000000000010000000164\
     0000000000000002000000000001000000000000000100000001650000000000000002\
     0000000001010000000000000002000000000000000100000001660000000000000002\
     00000000010200000000000000",
];

#[test]
fn stio_decoding_is_hardened() {
    for (i, golden) in STIO_GOLDENS.iter().enumerate() {
        harden(
            &format!("STIO golden {i}"),
            &unhex(golden),
            TRACE_EXPANSION,
            i as u64,
            |b| SbIoTrace::from_canonical_bytes(b).ok(),
            |t| Some(t.to_canonical_bytes()),
        );
    }
}

#[test]
fn stio_counts_reserve_no_more_than_the_blob() {
    // 65,536 empty rows (16 wire bytes each) behind a row count of 2^61:
    // the row columns may reserve only what the blob could fill.
    let mut trace = SbIoTrace::with_limit(0);
    for cycle in 0..1 << 16 {
        trace.record(synchro_tokens::TraceRow {
            cycle,
            reads: Vec::new(),
            writes: Vec::new(),
        });
    }
    let mut rows = trace.to_canonical_bytes();
    rows[13..21].copy_from_slice(&(1u64 << 61).to_le_bytes());
    // One row claiming u32::MAX reads, then a megabyte of bad tags: the
    // cell buffer may reserve only what the blob could fill.
    let mut cells = rows[..13].to_vec();
    cells.extend_from_slice(&1u64.to_le_bytes());
    cells.extend_from_slice(&0u64.to_le_bytes());
    cells.extend_from_slice(&u32::MAX.to_le_bytes());
    cells.resize(cells.len() + (1 << 20), 0xFF);
    for blob in [rows, cells] {
        let (decoded, largest) = peak(|| SbIoTrace::from_canonical_bytes(&blob));
        assert!(decoded.is_err());
        assert!(
            largest <= blob.len(),
            "decoding a {} B blob allocated {largest} B at once",
            blob.len()
        );
    }
}

// --- STCP -----------------------------------------------------------------

/// Bytes before an STCP payload: magic, version, backend, spec hash,
/// cycle, time and the payload length.
const STCP_HEADER: usize = 46;

/// Decodes an STCP blob, resumes it on `builder` and checkpoints the
/// resumed engine again: the nested logic-state and jitter-counter
/// blobs are only read by the resume.
fn harden_stcp(name: &str, blob: &[u8], seed: u64, builder: impl Fn() -> SystemBuilder) {
    let decode = |b: &[u8]| Checkpoint::from_canonical_bytes(b).ok()?.decode().ok();
    let reencode = |decoded| {
        let sys = AnySystem::resume_decoded(builder(), &decoded).ok()?;
        Some(sys.checkpoint().ok()?.to_canonical_bytes())
    };
    harden(name, blob, TRACE_EXPANSION, seed, decode, reencode);
    // The payload's own prefixes, behind a header whose length field
    // agrees, reach every nested decoder's truncation path.
    let payload = &blob[STCP_HEADER..];
    for n in 0..payload.len() {
        let mut cut = blob[..STCP_HEADER].to_vec();
        cut[STCP_HEADER - 8..].copy_from_slice(&(n as u64).to_le_bytes());
        cut.extend_from_slice(&payload[..n]);
        let (decoded, largest) = peak(|| decode(&cut));
        assert!(decoded.is_none(), "{name}: a {n} B payload prefix decoded");
        assert!(
            largest <= (TRACE_EXPANSION * cut.len()).max(FIXED_ALLOC),
            "{name}: prefix {n} allocated {largest} B"
        );
    }
}

const BUDGET: SimDuration = SimDuration::us(3000);

fn mixers(spec: &SystemSpec, trace_limit: usize, salt: u64) -> SystemBuilder {
    let mut b = SystemBuilder::new(spec.clone())
        .unwrap()
        .with_trace_limit(trace_limit);
    for i in 0..spec.sbs.len() {
        b = b.with_logic(
            SbId(i),
            MixerLogic::new(salt.wrapping_add(0x1000 * i as u64)),
        );
    }
    b
}

#[test]
fn stcp_e1_compiled_decoding_is_hardened() {
    // `e1_compiled_checkpoint_bytes_are_pinned`, at cycle 20.
    let builder = || mixers(&e1_spec(), 100, 0);
    let mut sys = builder().build_backend(Backend::Compiled);
    sys.run_until_cycles(20, BUDGET).unwrap();
    let blob = sys.checkpoint().unwrap().to_canonical_bytes();
    harden_stcp("STCP e1 compiled", &blob, 10, builder);
}

#[test]
fn stcp_protocol_event_decoding_is_hardened() {
    // `protocol_pingpong_checkpoint_bytes_are_pinned` on the event
    // backend at cycle 30: kernel events and injector counters.
    let spec = pingpong_spec();
    let plan = FaultPlan::generate(FaultClass::Protocol, &spec, 5);
    let builder = || mixers(&spec, 64, 0).with_fault_plan(plan.clone());
    let mut sys = builder().build_backend(Backend::Event);
    sys.run_until_cycles(30, BUDGET).unwrap();
    let blob = sys.checkpoint().unwrap().to_canonical_bytes();
    harden_stcp("STCP protocol event", &blob, 11, builder);
}

#[test]
fn stcp_split_lane_decoding_is_hardened() {
    // `split_batch_lane_checkpoint_bytes_are_pinned`, flipped lane 1.
    let spec = pingpong_spec();
    let salts = [7, 7, 21];
    let mut batch =
        BatchedSystem::build(salts.iter().map(|&s| mixers(&spec, 96, s)).collect()).unwrap();
    batch.run_until_cycles(12, BUDGET);
    batch
        .node_mut(1, spec.rings[0].holder, RingId(0))
        .unwrap()
        .seu_flip_token_latch();
    batch.run_until_cycles(40, BUDGET);
    let blob = batch.checkpoint(1).unwrap().to_canonical_bytes();
    harden_stcp("STCP split lane", &blob, 12, || mixers(&spec, 96, 7));
}

#[test]
fn stcp_chaos_decoding_is_hardened() {
    // `chaos_pingpong_checkpoint_bytes_are_pinned`, mid-run: pending
    // jittered edges and the jitter counters' nested blob.
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
    let builder = || mixers(&spec, 64, 0).with_fault_plan(plan.clone());
    let mut sys = builder().build_backend(Backend::Compiled);
    for _ in 0..120 {
        sys.run_for(SimDuration::ps(4999)).unwrap();
    }
    let blob = sys.checkpoint().unwrap().to_canonical_bytes();
    harden_stcp("STCP chaos", &blob, 13, builder);
}

#[test]
fn stcp_stock_logic_decoding_is_hardened() {
    // The count-prefixed logic blobs: a pipe holding a queue and a sink
    // holding its records (the states pinned in `logic_state_pins.rs`).
    let builder = || {
        SystemBuilder::new(chain_spec(3))
            .unwrap()
            .with_logic(SbId(0), SequenceSource::new(100, 3))
            .with_logic(SbId(1), PipeTransform::new(4, |w| w ^ 0xFF))
            .with_logic(SbId(2), SinkCollect::new())
    };
    let mut sys = builder().build_backend(Backend::Compiled);
    sys.run_until_cycles(47, BUDGET).unwrap();
    let blob = sys.checkpoint().unwrap().to_canonical_bytes();
    harden_stcp("STCP stock logic", &blob, 14, builder);
}

// --- STPF -----------------------------------------------------------------

#[test]
fn stpf_decoding_is_hardened() {
    let payload = b"canonical result entry bytes".to_vec();
    let key = content_key16(b"the request");
    let mut log = WitnessLog::new();
    log.append(&["ST-DET-001"], [1; 16], [2; 16]);
    let witness = log.append(&["ST-DET-001", "ST-CAMP-005"], key, content_key16(&payload));
    let with = Frame {
        key,
        payload,
        witness: Some(witness),
    };
    let without = Frame {
        witness: None,
        ..with.clone()
    };
    for (seed, frame) in [(20, with), (21, without)] {
        harden(
            "STPF",
            &frame.encode(),
            1,
            seed,
            |b| Frame::decode(b, &key).ok(),
            |f| Some(f.encode()),
        );
    }
}

// --- store disk entries ------------------------------------------------------

#[test]
fn store_entry_decoding_is_hardened() {
    let dir = std::env::temp_dir().join(format!("st-serve-hardening-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let key = ContentKey::of(b"hardened request");
    let payload = b"hardened result bytes".to_vec();
    ResultStore::with_dir(4, &dir).put(key, payload.clone());
    let path = dir.join(format!("{}.stres", key.to_hex()));
    let entry = std::fs::read(&path).unwrap();
    // Each hostile entry is written over the file, then read back
    // through a fresh store (an empty memory layer). A hit must be the
    // stored payload, and only the intact entry may hit.
    harden(
        "store entry",
        &entry,
        1,
        30,
        |b| {
            std::fs::write(&path, b).unwrap();
            ResultStore::with_dir(4, &dir)
                .get(key)
                .map(|hit| (b.to_vec(), hit))
        },
        |(input, hit)| {
            assert_eq!(hit, payload, "a hit returned other bytes");
            Some(input).filter(|i| *i == entry)
        },
    );
    let _ = std::fs::remove_dir_all(&dir);
}
