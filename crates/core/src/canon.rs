//! The canonical byte codec behind every persisted format: STCP
//! checkpoint payloads, the STIO trace decoder and the configuration
//! hash. [`Enc`] and [`Dec`] are the only byte writer and reader, and
//! [`Canon`] gives each type one wire layout that both directions share,
//! so a record's layout is its [`canon_record!`] field list and nothing
//! else.
//!
//! Integers are fixed-width little-endian (`usize` as `u64`, `bool` as
//! `0`/`1`, [`SimTime`] as femtoseconds); `Option<T>` is tag `0`, or `1`
//! then `T`; `Vec<T>` is a `u32` length then the elements; tuples are
//! their fields in order; [`SbIoTrace`] is its `u32`-length-prefixed
//! STIO bytes. Decoding fails closed with a [`CanonError`], and a
//! corrupt length never reserves more memory than the remaining input
//! could fill.

use crate::iotrace::{CanonError, SbIoTrace};
use st_sim::prelude::*;

/// Byte writer for the canonical encoding.
#[derive(Debug, Default)]
pub(crate) struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends bytes verbatim (no length prefix).
    pub fn raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.raw(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    pub fn dur(&mut self, d: SimDuration) {
        self.u64(d.as_fs());
    }

    /// A `u32`-length-prefixed byte string.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.raw(b);
    }
}

/// Byte reader for the canonical encoding.
pub(crate) struct Dec<'a> {
    bytes: &'a [u8],
}

impl<'a> Dec<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.bytes.len()
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CanonError> {
        if self.bytes.len() < n {
            return Err(CanonError::Truncated);
        }
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CanonError> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    /// A `u32`-length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], CanonError> {
        let n = u32::get(self)? as usize;
        self.take(n)
    }

    /// Succeeds only when every byte has been read.
    pub fn finish(self) -> Result<(), CanonError> {
        match self.bytes.len() {
            0 => Ok(()),
            n => Err(CanonError::TrailingBytes(n)),
        }
    }
}

/// A type with one canonical wire layout, written by `put` and read
/// back exactly by `get`.
pub(crate) trait Canon: Sized {
    fn put(&self, e: &mut Enc);
    fn get(d: &mut Dec<'_>) -> Result<Self, CanonError>;
}

/// Encodes `v` to its canonical bytes.
pub(crate) fn encode<T: Canon>(v: &T) -> Vec<u8> {
    let mut e = Enc::default();
    v.put(&mut e);
    e.into_bytes()
}

/// Decodes a `T` that must span all of `bytes`.
pub(crate) fn decode<T: Canon>(bytes: &[u8]) -> Result<T, CanonError> {
    let mut d = Dec::new(bytes);
    let v = T::get(&mut d)?;
    d.finish()?;
    Ok(v)
}

/// Implements [`Canon`] for a struct from its field list in wire order.
/// Fields after a `;` are not on the wire; decoding sets them to the
/// given expression.
macro_rules! canon_record {
    ($ty:ident { $($field:ident),+ $(; $($skip:ident: $default:expr),+)? $(,)? }) => {
        impl $crate::canon::Canon for $ty {
            fn put(&self, e: &mut $crate::canon::Enc) {
                $($crate::canon::Canon::put(&self.$field, e);)+
            }

            fn get(
                d: &mut $crate::canon::Dec<'_>,
            ) -> Result<Self, $crate::iotrace::CanonError> {
                Ok($ty {
                    $($field: $crate::canon::Canon::get(d)?,)+
                    $($($skip: $default,)+)?
                })
            }
        }
    };
}
pub(crate) use canon_record;

macro_rules! canon_int {
    ($($t:ty),+) => {$(
        impl Canon for $t {
            fn put(&self, e: &mut Enc) {
                e.raw(&self.to_le_bytes());
            }

            fn get(d: &mut Dec<'_>) -> Result<Self, CanonError> {
                Ok(<$t>::from_le_bytes(d.array()?))
            }
        }
    )+};
}
canon_int!(u8, u32, u64, u128);

impl Canon for usize {
    fn put(&self, e: &mut Enc) {
        e.u64(*self as u64);
    }

    fn get(d: &mut Dec<'_>) -> Result<Self, CanonError> {
        Ok(u64::get(d)? as usize)
    }
}

impl Canon for bool {
    fn put(&self, e: &mut Enc) {
        e.u8(u8::from(*self));
    }

    fn get(d: &mut Dec<'_>) -> Result<Self, CanonError> {
        match u8::get(d)? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(CanonError::BadTag(t)),
        }
    }
}

impl Canon for SimTime {
    fn put(&self, e: &mut Enc) {
        e.u64(self.as_fs());
    }

    fn get(d: &mut Dec<'_>) -> Result<Self, CanonError> {
        Ok(SimTime::from_fs(u64::get(d)?))
    }
}

impl<T: Canon> Canon for Option<T> {
    fn put(&self, e: &mut Enc) {
        match self {
            None => e.u8(0),
            Some(v) => {
                e.u8(1);
                v.put(e);
            }
        }
    }

    fn get(d: &mut Dec<'_>) -> Result<Self, CanonError> {
        match u8::get(d)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(d)?)),
            t => Err(CanonError::BadTag(t)),
        }
    }
}

impl<T: Canon> Canon for Vec<T> {
    fn put(&self, e: &mut Enc) {
        e.u32(self.len() as u32);
        for v in self {
            v.put(e);
        }
    }

    fn get(d: &mut Dec<'_>) -> Result<Self, CanonError> {
        let n = u32::get(d)? as usize;
        // Reserve no more than the rest of the input could fill, so a
        // corrupt length fails on truncation before it can balloon
        // memory.
        let fits = d.remaining() / std::mem::size_of::<T>().max(1);
        let mut out = Vec::with_capacity(n.min(fits));
        for _ in 0..n {
            out.push(T::get(d)?);
        }
        Ok(out)
    }
}

macro_rules! canon_tuple {
    ($($t:ident . $i:tt),+) => {
        impl<$($t: Canon),+> Canon for ($($t,)+) {
            fn put(&self, e: &mut Enc) {
                $(self.$i.put(e);)+
            }

            fn get(d: &mut Dec<'_>) -> Result<Self, CanonError> {
                Ok(($($t::get(d)?,)+))
            }
        }
    };
}
canon_tuple!(A.0, B.1);
canon_tuple!(A.0, B.1, C.2);

impl Canon for Bit {
    fn put(&self, e: &mut Enc) {
        e.u8(match self {
            Bit::Zero => 0,
            Bit::One => 1,
            Bit::X => 2,
        });
    }

    fn get(d: &mut Dec<'_>) -> Result<Self, CanonError> {
        bit_of(u8::get(d)?)
    }
}

fn bit_of(tag: u8) -> Result<Bit, CanonError> {
    match tag {
        0 => Ok(Bit::Zero),
        1 => Ok(Bit::One),
        2 => Ok(Bit::X),
        t => Err(CanonError::BadTag(t)),
    }
}

impl Canon for Value {
    fn put(&self, e: &mut Enc) {
        match self {
            Value::Bit(b) => b.put(e),
            Value::Word(w) => {
                e.u8(3);
                e.u64(*w);
            }
            Value::WordX => e.u8(4),
        }
    }

    fn get(d: &mut Dec<'_>) -> Result<Self, CanonError> {
        match u8::get(d)? {
            3 => Ok(Value::Word(u64::get(d)?)),
            4 => Ok(Value::WordX),
            t => bit_of(t).map(Value::Bit),
        }
    }
}

impl Canon for SbIoTrace {
    fn put(&self, e: &mut Enc) {
        e.bytes(&self.to_canonical_bytes());
    }

    fn get(d: &mut Dec<'_>) -> Result<Self, CanonError> {
        SbIoTrace::from_canonical_bytes(d.bytes()?)
    }
}
