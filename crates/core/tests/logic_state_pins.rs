//! Literal pins of every stock logic's `save_state` blob.
//!
//! These blobs travel inside STCP checkpoints as opaque bytes, so the
//! checkpoint pins only reach the ones their scenarios attach. Each
//! stock logic here runs a short synchro-tokens session, and its blob
//! must match the hex byte for byte.

use st_sim::time::SimDuration;
use synchro_tokens::scenarios::{chain_spec, mixer_builder, pingpong_spec, producer_consumer_spec};
use synchro_tokens::{
    PackingSource, PipeTransform, SbId, SequenceSource, SinkCollect, SyncLogic, SystemBuilder,
    UnpackingSink,
};

const CHAIN_CYCLES: u64 = 47;
const BUDGET: SimDuration = SimDuration::us(100);

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn blob<T: SyncLogic>(logic: &T) -> String {
    hex(&logic.save_state().expect("stock logics checkpoint"))
}

#[test]
fn stock_logic_state_blobs_are_pinned() {
    // source -> pipe -> sink: the pipe's queue and the sink's records
    // are the two variable-length layouts.
    let mut sys = SystemBuilder::new(chain_spec(3))
        .unwrap()
        .with_logic(SbId(0), SequenceSource::new(100, 3))
        .with_logic(SbId(1), PipeTransform::new(4, |w| w ^ 0xFF))
        .with_logic(SbId(2), SinkCollect::new())
        .build();
    sys.run_until_cycles(CHAIN_CYCLES, BUDGET).unwrap();
    let source = blob(sys.logic::<SequenceSource>(SbId(0)));
    let pipe = blob(sys.logic::<PipeTransform>(SbId(1)));
    let sink = blob(sys.logic::<SinkCollect>(SbId(2)));

    let mut sys = SystemBuilder::new(producer_consumer_spec())
        .unwrap()
        .with_logic(SbId(0), PackingSource::new(7, 3))
        .with_logic(SbId(1), UnpackingSink::new(7, 3))
        .build();
    sys.run_until_cycles(12, BUDGET).unwrap();
    let packing = blob(sys.logic::<PackingSource>(SbId(0)));
    let unpacking = blob(sys.logic::<UnpackingSink>(SbId(1)));

    let mut sys = mixer_builder(&pingpong_spec(), 5, 0).build();
    sys.run_until_cycles(12, BUDGET).unwrap();
    let mixer = blob(sys.logic::<synchro_tokens::scenarios::MixerLogic>(SbId(1)));

    let got = [
        ("SequenceSource", source),
        ("PipeTransform", pipe),
        ("SinkCollect", sink),
        ("PackingSource", packing),
        ("UnpackingSink", unpacking),
        ("MixerLogic", mixer),
    ];
    let want = [
        (
            "SequenceSource",
            "940000000000000003000000000000001000000000000000",
        ),
        (
            "PipeTransform",
            "0400000000000000770000000000000074000000000000007100000000000000\
             6e000000000000000c000000000000000000000000000000",
        ),
        (
            "SinkCollect",
            "0c00000000000000000000000000000012000000000000009b00000000000000\
             0000000000000000130000000000000098000000000000000000000000000000\
             1400000000000000950000000000000000000000000000001500000000000000\
             920000000000000000000000000000001e000000000000008f00000000000000\
             00000000000000001f000000000000008c000000000000000000000000000000\
             2000000000000000890000000000000000000000000000002100000000000000\
             860000000000000000000000000000002a000000000000008300000000000000\
             00000000000000002b0000000000000080000000000000000000000000000000\
             2c000000000000007d0000000000000000000000000000002d00000000000000\
             7a00000000000000",
        ),
        (
            "PackingSource",
            "130000000000000003000000000000000c00000000000000",
        ),
        (
            "UnpackingSink",
            "030000000000000013000000000000000c000000000000000000000000000000",
        ),
        (
            "MixerLogic",
            "02000000000000005018abc99be0276702000000000000000200000000000000",
        ),
    ];
    for ((name, got), (_, want)) in got.iter().zip(want) {
        assert_eq!(got, want, "{name} state blob moved");
    }
}
