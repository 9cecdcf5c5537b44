//! The peer wire envelope: the fail-closed frame every inter-node
//! result transfer travels in.
//!
//! Content addressing makes verification free — the receiver already
//! knows the 16-byte key it asked for, so the envelope echoes that key
//! and carries an FNV checksum of the payload, and decoding **fails
//! closed**: a frame whose key echo disagrees with the expected key, or
//! whose payload does not hash to the carried checksum, is rejected
//! before a single payload byte is trusted (the caller counts it into
//! `corrupt_discards`, the same ledger the disk store uses —
//! ST-CLU-015). The frame optionally carries the executing node's
//! [`WitnessRecord`] so provenance survives forwarding and the
//! forwarder's `/conformance` can tally remote executions (ST-WIT-013's
//! offline-verify property crosses the wire intact).
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! "STPF" | version u16 | flags u16 | key [16] | payload_len u64
//!        | payload_checksum u64 (fnv1a64)
//!        | [witness block when flags & WITNESS]   | payload bytes
//! ```
//!
//! The witness block is [`WitnessRecord`]'s `Canon` layout (see
//! [`st_sim::canon`]): the record's canonical fields plus its chain
//! links, `seq u64 | n_ids u32 | (len u32, bytes)* | config [16]
//! | result [16] | prev u64 | chain u64`.

use st_conformance::{fnv1a64, WitnessRecord};
use st_sim::canon::{Canon, CanonError, Dec, Enc};

/// Frame magic.
pub const MAGIC: &[u8; 4] = b"STPF";
/// Current frame version.
pub const VERSION: u16 = 1;
/// Flag: a witness block follows the header.
const FLAG_WITNESS: u16 = 1;
/// Decode ceiling on the payload length field, mirroring the HTTP
/// layer's body cap so a corrupt length cannot ask for a huge buffer.
pub const MAX_PAYLOAD: u64 = 8 * 1024 * 1024;
/// Ceilings on witness-block fields; real records are tiny.
const MAX_WITNESS_IDS: usize = 64;
const MAX_ID_LEN: usize = 128;

/// One peer-transfer frame: a verified payload plus optional witness
/// provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The content key the payload claims to be stored under.
    pub key: [u8; 16],
    /// The payload bytes (a canonical result entry).
    pub payload: Vec<u8>,
    /// The executing node's witness record, when one was minted.
    pub witness: Option<WitnessRecord>,
}

/// Why a frame was rejected. Every variant is a *discard* — the caller
/// must not fall back to trusting any decoded field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Too short, bad magic, bad version, or a truncated field.
    Malformed(&'static str),
    /// The frame's key echo is not the key the receiver asked for.
    KeyMismatch,
    /// The payload does not hash to the carried checksum.
    ChecksumMismatch,
    /// The carried witness record fails its own offline verification.
    WitnessInvalid,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Malformed(what) => write!(f, "malformed peer frame: {what}"),
            FrameError::KeyMismatch => write!(f, "peer frame key echo mismatch"),
            FrameError::ChecksumMismatch => write!(f, "peer frame payload checksum mismatch"),
            FrameError::WitnessInvalid => write!(f, "peer frame witness record fails verification"),
        }
    }
}

impl Frame {
    /// Encodes the frame. The checksum is computed here, so an encoded
    /// frame always decodes against its own key.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::with_capacity(48 + self.payload.len());
        let flags = if self.witness.is_some() {
            FLAG_WITNESS
        } else {
            0
        };
        e.raw(MAGIC);
        (VERSION, flags, self.key).put(&mut e);
        (self.payload.len() as u64, fnv1a64(&self.payload)).put(&mut e);
        if let Some(w) = &self.witness {
            w.put(&mut e);
        }
        e.raw(&self.payload);
        e.into_bytes()
    }

    /// Decodes and verifies a frame against the key the receiver asked
    /// for. Fail-closed: any structural defect, key disagreement,
    /// checksum disagreement, or invalid witness record rejects the
    /// whole frame.
    pub fn decode(bytes: &[u8], expected_key: &[u8; 16]) -> Result<Frame, FrameError> {
        let mut d = Dec::new(bytes);
        d.magic(MAGIC).map_err(malformed("magic"))?;
        if u16::get(&mut d).map_err(malformed("truncated"))? != VERSION {
            return Err(FrameError::Malformed("version"));
        }
        let (flags, key, payload_len, checksum) =
            <(u16, [u8; 16], u64, u64)>::get(&mut d).map_err(malformed("truncated"))?;
        if flags & !FLAG_WITNESS != 0 {
            return Err(FrameError::Malformed("unknown flags"));
        }
        if payload_len > MAX_PAYLOAD {
            return Err(FrameError::Malformed("payload length over cap"));
        }
        let witness = if flags & FLAG_WITNESS != 0 {
            let w = WitnessRecord::get(&mut d).map_err(|e| match e {
                CanonError::BadUtf8 => FrameError::Malformed("witness id utf8"),
                _ => FrameError::Malformed("truncated"),
            })?;
            if w.ids.is_empty() || w.ids.len() > MAX_WITNESS_IDS {
                return Err(FrameError::Malformed("witness id count"));
            }
            if w.ids
                .iter()
                .any(|id| id.is_empty() || id.len() > MAX_ID_LEN)
            {
                return Err(FrameError::Malformed("witness id length"));
            }
            Some(w)
        } else {
            None
        };
        let payload = d
            .take(payload_len as usize)
            .map_err(malformed("truncated"))?
            .to_vec();
        d.finish().map_err(malformed("trailing bytes"))?;
        // Verification order: identity first (did we even get the key
        // we asked for?), then integrity, then provenance.
        if key != *expected_key {
            return Err(FrameError::KeyMismatch);
        }
        if fnv1a64(&payload) != checksum {
            return Err(FrameError::ChecksumMismatch);
        }
        if let Some(w) = &witness {
            if !w.verify() {
                return Err(FrameError::WitnessInvalid);
            }
        }
        Ok(Frame {
            key,
            payload,
            witness,
        })
    }
}

/// Maps any codec error to one malformed-frame reason.
fn malformed(what: &'static str) -> impl Fn(CanonError) -> FrameError {
    move |_| FrameError::Malformed(what)
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_conformance::{content_key16, witnesses, WitnessLog};

    fn frame_with_witness() -> Frame {
        let payload = b"canonical result entry bytes".to_vec();
        let key = content_key16(b"the request");
        let mut log = WitnessLog::new();
        let witness = log.append(&["ST-DET-001"], key, content_key16(&payload));
        Frame {
            key,
            payload,
            witness: Some(witness),
        }
    }

    #[test]
    fn frames_round_trip_with_and_without_witness() {
        let with = frame_with_witness();
        let decoded = Frame::decode(&with.encode(), &with.key).expect("round trip");
        assert_eq!(decoded, with);
        assert!(decoded.witness.as_ref().unwrap().verify());

        let without = Frame {
            witness: None,
            ..with
        };
        assert_eq!(
            Frame::decode(&without.encode(), &without.key).expect("round trip"),
            without
        );
    }

    #[test]
    fn decode_fails_closed_on_every_tampered_field() {
        // A replicated entry MUST verify against its content key on
        // arrival — this is the wire half of ST-CLU-015, and the same
        // discard ledger as the disk store's corrupt-entry handling
        // (ST-STORE-011).
        witnesses!(["ST-CLU-015", "ST-STORE-011"]);
        let frame = frame_with_witness();
        let good = frame.encode();

        // Wrong expected key: the receiver asked for something else.
        let other = content_key16(b"a different request");
        assert_eq!(
            Frame::decode(&good, &other).unwrap_err(),
            FrameError::KeyMismatch
        );

        // Flip one payload byte: checksum catches it.
        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert_eq!(
            Frame::decode(&flipped, &frame.key).unwrap_err(),
            FrameError::ChecksumMismatch
        );

        // Tamper with the witness result digest: the record's own chain
        // hash catches it even though the payload checksum still holds.
        let mut bad_witness = frame.clone();
        bad_witness.witness.as_mut().unwrap().result = [0xAB; 16];
        assert_eq!(
            Frame::decode(&bad_witness.encode(), &frame.key).unwrap_err(),
            FrameError::WitnessInvalid
        );

        // Structural damage: truncation, magic, version, trailing junk.
        assert!(matches!(
            Frame::decode(&good[..good.len() - 1], &frame.key).unwrap_err(),
            FrameError::Malformed(_)
        ));
        let mut magic = good.clone();
        magic[0] = b'X';
        assert!(matches!(
            Frame::decode(&magic, &frame.key).unwrap_err(),
            FrameError::Malformed("magic")
        ));
        let mut version = good.clone();
        version[4] = 0xFF;
        assert!(matches!(
            Frame::decode(&version, &frame.key).unwrap_err(),
            FrameError::Malformed("version")
        ));
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(matches!(
            Frame::decode(&trailing, &frame.key).unwrap_err(),
            FrameError::Malformed("trailing bytes")
        ));
        assert!(matches!(
            Frame::decode(b"", &frame.key).unwrap_err(),
            FrameError::Malformed(_)
        ));
    }

    #[test]
    fn decode_caps_hostile_length_fields() {
        let frame = Frame {
            key: [7; 16],
            payload: vec![1, 2, 3],
            witness: None,
        };
        let mut bytes = frame.encode();
        // Payload length field sits at offset 24; write an absurd value.
        bytes[24..32].fill(0xFF);
        assert!(matches!(
            Frame::decode(&bytes, &frame.key).unwrap_err(),
            FrameError::Malformed("payload length over cap")
        ));
    }
}
