//! The workspace's one hash family: stable, hand-rolled, integer-only.
//!
//! Result-store keys, checkpoint `spec_hash`es, witness chains, fault
//! draws and the [`crate::rng::SimRng`] stream are all built from
//! [`fnv1a64`], [`mix64`] and [`content_key16`]. Keys persist on disk
//! and across versions, so the algorithms are fixed: no `DefaultHasher`
//! (its algorithm is unspecified), no dependencies.

/// The splitmix64 increment (the 64-bit golden ratio); XORed into the
/// FNV offset basis for the second pass of [`content_key16`].
pub const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over `bytes` (offset basis `0xcbf29ce484222325`,
/// prime `0x100000001b3`).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_seeded(FNV_OFFSET, bytes)
}

fn fnv1a64_seeded(basis: u64, bytes: &[u8]) -> u64 {
    let mut h = basis;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// splitmix64 finalizer: full-avalanche bit mixing.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// 128-bit content key over canonical bytes: two FNV-1a passes with
/// different offset bases, the length folded into each, each finished
/// with [`mix64`]; little-endian halves.
///
/// Both passes run in one loop, so their multiply chains overlap.
pub fn content_key16(bytes: &[u8]) -> [u8; 16] {
    let (mut a, mut b) = (FNV_OFFSET, FNV_OFFSET ^ GOLDEN);
    for &byte in bytes {
        a = (a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        b = (b ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    let len = bytes.len() as u64;
    let a = mix64(a ^ len);
    let b = mix64(b.wrapping_add(len));
    let mut k = [0u8; 16];
    k[..8].copy_from_slice(&a.to_le_bytes());
    k[8..].copy_from_slice(&b.to_le_bytes());
    k
}

/// Lower-case hex of a 16-byte key (32 chars): the wire and file-name
/// form of every content key.
pub fn key_hex(key: [u8; 16]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(32);
    for b in key {
        s.push(char::from(HEX[usize::from(b >> 4)]));
        s.push(char::from(HEX[usize::from(b & 15)]));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a/64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn content_key_equals_two_separate_passes() {
        let two_pass = |bytes: &[u8]| {
            let len = bytes.len() as u64;
            let a = mix64(fnv1a64_seeded(FNV_OFFSET, bytes) ^ len);
            let b = mix64(fnv1a64_seeded(FNV_OFFSET ^ GOLDEN, bytes).wrapping_add(len));
            let mut k = [0u8; 16];
            k[..8].copy_from_slice(&a.to_le_bytes());
            k[8..].copy_from_slice(&b.to_le_bytes());
            k
        };
        let mut rng = crate::rng::SimRng::seed_from_u64(16);
        let bytes: Vec<u8> = (0..20_000).map(|_| rng.next_u64() as u8).collect();
        for n in [0, 1, 7, 4096, 20_000] {
            assert_eq!(
                content_key16(&bytes[..n]),
                two_pass(&bytes[..n]),
                "{n} bytes"
            );
        }
    }
}
