//! The workspace's one canonical byte codec. [`Enc`] and [`Dec`] are
//! the only byte writer and reader, and [`Canon`] gives each type one
//! wire layout that both directions share, so a record's layout is its
//! [`canon_record!`] field list and nothing else.
//!
//! Every byte format in the workspace is written and read here:
//!
//! * `STCP` engine checkpoints (`synchro-tokens`), including the kernel
//!   snapshot and pending events laid out below, the FIFO snapshots of
//!   `st-channel`, and the blobs nested in a payload: each stock
//!   logic's `save_state` and the jitter and protocol-injector
//!   occurrence counters;
//! * `STIO` per-SB I/O traces and the configuration hash input;
//! * `STPF` peer frames (`st-fabric`), whose witness block is
//!   `WitnessRecord`'s own [`Canon`] layout (`st-conformance`), and the
//!   witness chain's and the requirements registry's hashed bytes;
//! * `st-serve`'s `JobRequest` content bytes, served `JobResult` bytes,
//!   the result store's `STRC` disk entries and its `STCK` checkpoint
//!   keys.
//!
//! Integers are fixed-width little-endian (`usize` as `u64`, `bool` as
//! `0`/`1`, [`SimTime`] and [`SimDuration`] as femtoseconds); `[u8; N]`
//! is its bytes; `Option<T>` is tag `0`, or `1` then `T`; `Vec<T>` is a
//! `u32` length then the elements ([`Enc::seq`] writes a `u64` count);
//! `String` is a `u32` length then UTF-8; tuples are their fields in
//! order. Decoding fails closed with a [`CanonError`], and a corrupt
//! count never reserves more memory than the remaining input could
//! fill ([`Dec::reserve`]).

use crate::component::ComponentId;
use crate::kernel::{KernelEvent, KernelEventKind, KernelSnapshot, SignalId};
use crate::time::{SimDuration, SimTime};
use crate::value::{Bit, Value};
use std::fmt;

/// Decoding failures of the canonical codec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CanonError {
    /// The input ended before the encoding was complete.
    Truncated,
    /// The magic prefix is not the format's.
    BadMagic,
    /// An unknown format version byte.
    BadVersion(u8),
    /// A tag byte outside its enum's range.
    BadTag(u8),
    /// Well-formed encoding followed by extra bytes (count).
    TrailingBytes(usize),
    /// A string that is not UTF-8.
    BadUtf8,
    /// A value its type cannot hold, or a field that disagrees with
    /// the one it must echo.
    BadValue,
}

impl fmt::Display for CanonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CanonError::Truncated => write!(f, "canonical bytes truncated"),
            CanonError::BadMagic => write!(f, "bad magic"),
            CanonError::BadVersion(v) => write!(f, "unknown canonical format version {v}"),
            CanonError::BadTag(t) => write!(f, "invalid tag {t:#04x}"),
            CanonError::TrailingBytes(n) => write!(f, "{n} trailing bytes after the encoding"),
            CanonError::BadUtf8 => write!(f, "string is not UTF-8"),
            CanonError::BadValue => write!(f, "a field holds a value it cannot take"),
        }
    }
}

impl std::error::Error for CanonError {}

/// Byte writer for the canonical encoding.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// A writer pre-sized for `bytes` of output.
    pub fn with_capacity(bytes: usize) -> Self {
        Enc {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// The bytes written so far.
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

    /// A `u32`-length-prefixed byte string.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.raw(b);
    }

    /// A `u64`-length-prefixed byte string.
    pub fn long_bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.raw(b);
    }

    /// A `u64` count, then each item.
    pub fn seq<T: Canon>(&mut self, items: impl ExactSizeIterator<Item = T>) {
        self.u64(items.len() as u64);
        for v in items {
            v.put(self);
        }
    }
}

/// Byte reader for the canonical encoding.
pub struct Dec<'a> {
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

    /// The next `n` bytes verbatim.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CanonError> {
        if self.bytes.len() < n {
            return Err(CanonError::Truncated);
        }
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        Ok(head)
    }

    /// Reads `magic` or fails with [`CanonError::BadMagic`].
    pub fn magic(&mut self, magic: &[u8]) -> Result<(), CanonError> {
        if self.take(magic.len())? != magic {
            return Err(CanonError::BadMagic);
        }
        Ok(())
    }

    /// A `u32`-length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], CanonError> {
        let n = u32::get(self)? as usize;
        self.take(n)
    }

    /// A `u64`-length-prefixed byte string.
    pub fn long_bytes(&mut self) -> Result<&'a [u8], CanonError> {
        let n = u64::get(self)?;
        self.take(usize::try_from(n).map_err(|_| CanonError::Truncated)?)
    }

    /// Pre-sizes `v` for `n` more elements about to be decoded, but
    /// never past what the rest of the input could fill at
    /// `size_of::<T>()` bytes each: a corrupt count then fails on
    /// truncation before it can balloon memory. Every decoder that
    /// reserves from a decoded count goes through here.
    pub fn reserve<T>(&self, v: &mut Vec<T>, n: u64) {
        v.reserve(self.fit::<T>(n));
    }

    /// How many of `n` claimed `T`s the rest of the input could fill.
    fn fit<T>(&self, n: u64) -> usize {
        let fits = self.remaining() / std::mem::size_of::<T>().max(1);
        n.min(fits as u64) as usize
    }

    /// `n` consecutive `T`s, pre-sized as [`reserve`](Self::reserve)
    /// does.
    pub fn many<T: Canon>(&mut self, n: u64) -> Result<Vec<T>, CanonError> {
        let mut out = Vec::with_capacity(self.fit::<T>(n));
        for _ in 0..n {
            out.push(T::get(self)?);
        }
        Ok(out)
    }

    /// A `u64` count, then that many `T`s (see [`Enc::seq`]).
    pub fn seq<T: Canon>(&mut self) -> Result<Vec<T>, CanonError> {
        let n = u64::get(self)?;
        self.many(n)
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
pub trait Canon: Sized {
    fn put(&self, e: &mut Enc);
    fn get(d: &mut Dec<'_>) -> Result<Self, CanonError>;
}

/// Encodes `v` to its canonical bytes.
pub fn encode<T: Canon>(v: &T) -> Vec<u8> {
    let mut e = Enc::default();
    v.put(&mut e);
    e.into_bytes()
}

/// Decodes a `T` that must span all of `bytes`.
pub fn decode<T: Canon>(bytes: &[u8]) -> Result<T, CanonError> {
    decode_with(bytes, T::get)
}

/// Runs the reader `f` over `bytes`, which it must consume exactly.
pub fn decode_with<T>(
    bytes: &[u8],
    f: impl FnOnce(&mut Dec<'_>) -> Result<T, CanonError>,
) -> Result<T, CanonError> {
    let mut d = Dec::new(bytes);
    let v = f(&mut d)?;
    d.finish()?;
    Ok(v)
}

/// Implements [`Canon`] for a struct from its field list in wire order.
/// Fields after a `;` are not on the wire; decoding sets them to the
/// given expression.
#[macro_export]
macro_rules! canon_record {
    ($ty:ident { $($field:ident),+ $(; $($skip:ident: $default:expr),+)? $(,)? }) => {
        impl $crate::canon::Canon for $ty {
            fn put(&self, e: &mut $crate::canon::Enc) {
                $($crate::canon::Canon::put(&self.$field, e);)+
            }

            fn get(
                d: &mut $crate::canon::Dec<'_>,
            ) -> Result<Self, $crate::canon::CanonError> {
                Ok($ty {
                    $($field: $crate::canon::Canon::get(d)?,)+
                    $($($skip: $default,)+)?
                })
            }
        }
    };
}
pub use crate::canon_record;

macro_rules! canon_int {
    ($($t:ty),+) => {$(
        impl Canon for $t {
            fn put(&self, e: &mut Enc) {
                e.raw(&self.to_le_bytes());
            }

            fn get(d: &mut Dec<'_>) -> Result<Self, CanonError> {
                Ok(<$t>::from_le_bytes(<[u8; std::mem::size_of::<$t>()]>::get(d)?))
            }
        }
    )+};
}
canon_int!(u8, u16, u32, u64, u128);

impl<const N: usize> Canon for [u8; N] {
    fn put(&self, e: &mut Enc) {
        e.raw(self);
    }

    fn get(d: &mut Dec<'_>) -> Result<Self, CanonError> {
        Ok(d.take(N)?.try_into().expect("take returns N bytes"))
    }
}

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

impl Canon for String {
    fn put(&self, e: &mut Enc) {
        e.bytes(self.as_bytes());
    }

    fn get(d: &mut Dec<'_>) -> Result<Self, CanonError> {
        let s = std::str::from_utf8(d.bytes()?).map_err(|_| CanonError::BadUtf8)?;
        Ok(s.to_owned())
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

impl Canon for SimDuration {
    fn put(&self, e: &mut Enc) {
        e.u64(self.as_fs());
    }

    fn get(d: &mut Dec<'_>) -> Result<Self, CanonError> {
        Ok(SimDuration::fs(u64::get(d)?))
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
        let n = u32::get(d)?;
        d.many(n.into())
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
canon_tuple!(A.0, B.1, C.2, D.3);
canon_tuple!(A.0, B.1, C.2, D.3, E.4);

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
            Value::Word(w) => (3u8, *w).put(e),
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

/// `time | seq | tag | operands`, tag `0` Drive (`sig: u32`, value) or
/// `1` Timer (`comp: u32`, `tag: u64`).
impl Canon for KernelEvent {
    fn put(&self, e: &mut Enc) {
        (self.time, self.seq).put(e);
        match self.kind {
            KernelEventKind::Drive { sig, value } => (0u8, sig.as_raw(), value).put(e),
            KernelEventKind::Timer { comp, tag } => (1u8, comp.as_raw(), tag).put(e),
        }
    }

    fn get(d: &mut Dec<'_>) -> Result<Self, CanonError> {
        let (time, seq) = Canon::get(d)?;
        let kind = match u8::get(d)? {
            0 => KernelEventKind::Drive {
                sig: SignalId::from_raw(u32::get(d)?),
                value: Value::get(d)?,
            },
            1 => KernelEventKind::Timer {
                comp: ComponentId::from_raw(u32::get(d)?),
                tag: u64::get(d)?,
            },
            t => return Err(CanonError::BadTag(t)),
        };
        Ok(KernelEvent { time, seq, kind })
    }
}

// `now` travels in the STCP checkpoint header, not the payload.
canon_record!(KernelSnapshot {
    started,
    next_seq,
    scheduled_total,
    events_fired,
    wakes,
    signals,
    events,
    delay_model;
    now: SimTime::ZERO
});
