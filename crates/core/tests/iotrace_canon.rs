//! Canonical-serialization round trip for [`SbIoTrace`].
//!
//! `st-serve` derives content-addressed cache keys from canonical trace
//! bytes and compares served results byte-for-byte against locally
//! computed ones, so the encoding must be exact: decode must invert
//! encode, and re-encoding a decoded trace must reproduce the input
//! byte-identically. The digest and the STIO v1 bytes of fixed traces
//! are pinned as golden vectors, so a storage change cannot move them.

use st_sim::prelude::*;
use st_testkit::prop::prelude::*;
use synchro_tokens::iotrace::{CanonError, CANON_MAGIC, CANON_VERSION};
use synchro_tokens::scenarios::{mixer_builder, pingpong_spec};
use synchro_tokens::{Backend, BatchedSystem, SbId, SbIoTrace, TraceRow};

/// The determinism observable's digest and canonical form are part of
/// the trace contract every ST-DET-001 comparison relies on.
#[test]
fn conformance_witnesses() {
    st_conformance::witnesses!(["ST-DET-001"]);
}

fn arb_word() -> impl Strategy<Value = Option<u64>> {
    (any::<bool>(), any::<u64>()).prop_map(|(some, v)| some.then_some(v))
}

fn arb_row() -> impl Strategy<Value = TraceRow> {
    (
        any::<u64>(),
        prop::collection::vec(arb_word(), 0..5),
        prop::collection::vec(arb_word(), 0..5),
    )
        .prop_map(|(cycle, reads, writes)| TraceRow {
            cycle,
            reads,
            writes,
        })
}

fn arb_trace() -> impl Strategy<Value = SbIoTrace> {
    (prop::collection::vec(arb_row(), 0..40), 0usize..64).prop_map(|(rows, extra)| {
        // Build through the public API so the trace is always a state
        // `record` could have produced: the limit is 0 (unlimited) or
        // at least the row count.
        let limit = if extra == 0 { 0 } else { rows.len() + extra };
        let mut t = SbIoTrace::with_limit(limit);
        for row in rows {
            t.record(row);
        }
        t
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn encode_decode_reencode_is_byte_identical(trace in arb_trace()) {
        let bytes = trace.to_canonical_bytes();
        let decoded = SbIoTrace::from_canonical_bytes(&bytes).expect("own encoding decodes");
        prop_assert_eq!(&decoded, &trace, "decode must invert encode");
        prop_assert_eq!(decoded.to_canonical_bytes(), bytes, "re-encode must be byte-identical");
    }

    #[test]
    fn truncation_never_panics_and_always_errors(trace in arb_trace(), cut in any::<usize>()) {
        let bytes = trace.to_canonical_bytes();
        let cut = cut % bytes.len();
        // Strictly shorter input can decode successfully only if a
        // trailing-length prefix shrank, which the row/word counts make
        // impossible — so every truncation must error, never panic.
        prop_assert!(SbIoTrace::from_canonical_bytes(&bytes[..cut]).is_err());
    }

    #[test]
    fn single_byte_corruption_is_detected_or_value_changing(
        trace in arb_trace(),
        pos in any::<usize>(),
        flip in any::<u8>(),
    ) {
        let bytes = trace.to_canonical_bytes();
        let mut corrupt = bytes.clone();
        let pos = pos % corrupt.len();
        corrupt[pos] ^= flip.max(1);
        // A flip that still parses must decode to a *different* value
        // (the encoding has no don't-care bits), so the content hash
        // over canonical bytes always catches it.
        if let Ok(decoded) = SbIoTrace::from_canonical_bytes(&corrupt) {
            prop_assert_ne!(&decoded, &trace);
            prop_assert_eq!(decoded.to_canonical_bytes(), corrupt);
        }
    }
}

#[test]
fn empty_trace_has_minimal_stable_encoding() {
    let t = SbIoTrace::with_limit(0);
    let bytes = t.to_canonical_bytes();
    assert_eq!(&bytes[..4], CANON_MAGIC);
    assert_eq!(bytes[4], CANON_VERSION);
    assert_eq!(
        bytes.len(),
        4 + 1 + 8 + 8,
        "magic + version + limit + count"
    );
    assert_eq!(SbIoTrace::from_canonical_bytes(&bytes).unwrap(), t);
}

#[test]
fn specific_corruptions_are_classified() {
    let mut t = SbIoTrace::with_limit(8);
    t.record(TraceRow {
        cycle: 3,
        reads: vec![Some(7), None],
        writes: vec![Some(0xFFFF_FFFF_FFFF_FFFF)],
    });
    let good = t.to_canonical_bytes();

    let mut bad_magic = good.clone();
    bad_magic[0] = b'X';
    assert_eq!(
        SbIoTrace::from_canonical_bytes(&bad_magic),
        Err(CanonError::BadMagic)
    );

    let mut bad_version = good.clone();
    bad_version[4] = 99;
    assert_eq!(
        SbIoTrace::from_canonical_bytes(&bad_version),
        Err(CanonError::BadVersion(99))
    );

    let mut trailing = good.clone();
    trailing.push(0);
    assert_eq!(
        SbIoTrace::from_canonical_bytes(&trailing),
        Err(CanonError::TrailingBytes(1))
    );

    // The first option tag of the row's reads sits right after
    // header (21) + cycle (8) + reads_len (4).
    let mut bad_tag = good.clone();
    bad_tag[33] = 2;
    assert_eq!(
        SbIoTrace::from_canonical_bytes(&bad_tag),
        Err(CanonError::BadTag(2))
    );

    assert_eq!(
        SbIoTrace::from_canonical_bytes(&good[..10]),
        Err(CanonError::Truncated)
    );
}

fn header(row_count: u64) -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(CANON_MAGIC);
    bytes.push(CANON_VERSION);
    bytes.extend_from_slice(&0u64.to_le_bytes());
    bytes.extend_from_slice(&row_count.to_le_bytes());
    bytes
}

#[test]
fn huge_declared_row_count_fails_without_allocation_blowup() {
    // A corrupt count of u64::MAX rows must hit Truncated, not OOM: the
    // row columns reserve at most what the input could hold.
    let mut bytes = header(u64::MAX);
    assert_eq!(
        SbIoTrace::from_canonical_bytes(&bytes),
        Err(CanonError::Truncated)
    );
    bytes.extend_from_slice(&[0; 11]);
    assert_eq!(
        SbIoTrace::from_canonical_bytes(&bytes),
        Err(CanonError::Truncated)
    );
}

#[test]
fn huge_declared_word_count_fails_without_allocation_blowup() {
    // One row claiming u32::MAX reads: the flat cell buffer must not
    // reserve 64 GiB before the input runs out.
    let mut bytes = header(1);
    bytes.extend_from_slice(&5u64.to_le_bytes());
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    bytes.extend_from_slice(&[1, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
    assert_eq!(
        SbIoTrace::from_canonical_bytes(&bytes),
        Err(CanonError::Truncated)
    );
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn rows(limit: usize, rows: impl IntoIterator<Item = TraceRow>) -> SbIoTrace {
    let mut t = SbIoTrace::with_limit(limit);
    for row in rows {
        t.record(row);
    }
    t
}

fn row(cycle: u64, reads: Vec<Option<u64>>, writes: Vec<Option<u64>>) -> TraceRow {
    TraceRow {
        cycle,
        reads,
        writes,
    }
}

/// `(trace, digest, STIO v1 hex)` for four trace shapes. Digests are
/// compared across engines and canonical bytes are content-addressed,
/// so any change to how traces are stored must reproduce these bit for
/// bit.
fn golden_traces() -> Vec<(&'static str, SbIoTrace, u64, &'static str)> {
    vec![
        (
            "engine-shaped fixed-width rows",
            rows(
                0,
                (0..6u64).map(|c| {
                    row(
                        c,
                        vec![
                            (c % 2 == 1).then_some(c * 3),
                            (c % 3 == 0).then_some(0xDEAD_0000 + c),
                        ],
                        vec![(c % 2 == 0).then_some(c ^ 0x5A5A)],
                    )
                }),
            ),
            0xa7d4_b17e_c1a6_d58d,
            "5354494f01000000000000000006000000000000000000000000000000020000000001\
             0000adde0000000001000000015a5a0000000000000100000000000000020000000103\
             0000000000000000010000000002000000000000000200000000000100000001585a00\
             0000000000030000000000000002000000010900000000000000010300adde00000000\
             0100000000040000000000000002000000000001000000015e5a000000000000050000\
             000000000002000000010f00000000000000000100000000",
        ),
        (
            "variable-width rows",
            rows(
                16,
                [
                    row(7, vec![Some(1)], vec![]),
                    row(9, vec![None, Some(u64::MAX), None], vec![Some(0)]),
                    row(9, vec![], vec![None, None, Some(42), Some(1 << 63)]),
                ],
            ),
            0x480e_bf6c_c6b1_ad82,
            "5354494f01100000000000000003000000000000000700000000000000010000000101\
             00000000000000000000000900000000000000030000000001ffffffffffffffff0001\
             000000010000000000000000090000000000000000000000040000000000012a000000\
             00000000010000000000000080",
        ),
        (
            "empty rows",
            rows(0, (0..4u64).map(|c| row(c, vec![], vec![]))),
            0x0d4d_70d6_8327_4bdb,
            "5354494f01000000000000000004000000000000000000000000000000000000000000\
             0000010000000000000000000000000000000200000000000000000000000000000003\
             000000000000000000000000000000",
        ),
        (
            "truncated at its limit",
            rows(
                3,
                (0..5u64).map(|c| row(c, vec![Some(c + 100)], vec![None, (c > 0).then_some(c)])),
            ),
            0x0415_c6c8_f71a_ac98,
            "5354494f01030000000000000003000000000000000000000000000000010000000164\
             0000000000000002000000000001000000000000000100000001650000000000000002\
             0000000001010000000000000002000000000000000100000001660000000000000002\
             00000000010200000000000000",
        ),
    ]
}

#[test]
fn digest_and_canonical_bytes_match_golden_vectors() {
    for (name, trace, digest, canon) in golden_traces() {
        assert_eq!(trace.digest(), digest, "digest of {name}");
        let bytes = trace.to_canonical_bytes();
        assert_eq!(hex(&bytes), canon, "STIO bytes of {name}");
        let decoded = SbIoTrace::from_canonical_bytes(&bytes).expect("golden decodes");
        assert_eq!(decoded.digest(), digest, "decoded digest of {name}");
        assert_eq!(decoded, trace, "decoded {name}");
    }
    assert_eq!(SbIoTrace::with_limit(0).digest(), 0);
}

#[test]
fn every_engine_records_the_golden_pingpong_digests() {
    // Per SB of seed 5 after 200 cycles; every engine records the same
    // rows, so every engine folds the same digest.
    const GOLDEN: [u64; 2] = [0x593e_85b0_ed2f_f320, 0xe28e_16b0_4d7f_f713];
    let budget = SimDuration::us(1000);
    for backend in [Backend::Event, Backend::Compiled] {
        let mut sys = mixer_builder(&pingpong_spec(), 5, 0).build_backend(backend);
        sys.run_until_cycles(200, budget).expect("runs");
        for (i, &want) in GOLDEN.iter().enumerate() {
            assert_eq!(sys.io_trace(SbId(i)).digest(), want, "{backend:?} SB {i}");
        }
    }
    let Ok(mut batch) = BatchedSystem::build(vec![
        mixer_builder(&pingpong_spec(), 5, 0),
        mixer_builder(&pingpong_spec(), 6, 0),
    ]) else {
        panic!("inside the batched envelope");
    };
    batch.run_until_cycles(200, budget);
    for (i, &want) in GOLDEN.iter().enumerate() {
        assert_eq!(batch.trace_digest(0, SbId(i)), want, "batched SB {i}");
        assert_eq!(batch.io_trace(0, SbId(i)).digest(), want, "batched SB {i}");
    }
    assert_eq!(batch.trace_digest(1, SbId(0)), 0xa1a4_c768_4b51_4d3e);
}
