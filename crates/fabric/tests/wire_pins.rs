//! Literal pins of the STPF peer frame: one frame with a witness block
//! and one without. The round-trip tests in `wire.rs` only compare the
//! encoder with its own decoder; these hold the absolute bytes.

use st_conformance::{content_key16, WitnessLog};
use st_fabric::wire::Frame;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn frames() -> (Frame, Frame) {
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
    (with, without)
}

/// `"STPF" | version 1 | flags 0 | key | payload_len | checksum | payload`.
const WITHOUT: &str = "535450460100000056c65ab446b4de0c754b702cedf7570e1c00000000000000\
     959841d69ae54d7563616e6f6e6963616c20726573756c7420656e7472792062\
     79746573";
/// The same frame with flags 1 and the witness block before the payload:
/// `seq | n_ids | (len, id)* | config | result | prev | chain`.
const WITH: &str = "535450460100010056c65ab446b4de0c754b702cedf7570e1c00000000000000\
     959841d69ae54d750100000000000000020000000b00000053542d43414d502d\
     3030350a00000053542d4445542d30303156c65ab446b4de0c754b702cedf757\
     0e0f1f99c49f291e3df28ada6951ff568a8a838fae7562e942e08ef9709bc51a\
     5d63616e6f6e6963616c20726573756c7420656e747279206279746573";

#[test]
fn frame_bytes_are_pinned() {
    let (with, without) = frames();
    assert_eq!(
        hex(&without.encode()),
        WITHOUT,
        "STPF frame without witness moved"
    );
    assert_eq!(hex(&with.encode()), WITH, "STPF frame with witness moved");
    for frame in [with, without] {
        assert_eq!(Frame::decode(&frame.encode(), &frame.key), Ok(frame));
    }
}
