//! Per-SB I/O sequence capture — the observable whose invariance defines
//! determinism.
//!
//! The paper's §5 experiment monitors "the data sequences on each SB's
//! I/Os … for the first 100 local clock cycles" and compares them across
//! delay configurations. [`SbIoTrace`] is that record: one row per local
//! cycle, carrying what every input presented and what every output
//! transmitted. Two runs are *deterministically equivalent* when the
//! traces of every SB match exactly.

use std::fmt;
use std::hash::{Hash, Hasher};

/// Fast in-process hasher behind [`SbIoTrace::digest`] (FxHash-style
/// multiply-rotate with a splitmix64 finish). Campaign verdicts hash
/// every trace row, and SipHash (`DefaultHasher`) dominated sweep
/// profiles. Digest values are compared within a process and never
/// persisted — `st-serve`'s content keys use their own stable FNV
/// over canonical bytes.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct DigestHasher(u64);

impl DigestHasher {
    const K: u64 = 0x517c_c1b7_2722_0a95;
}

impl Hasher for DigestHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.write_u64(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            // Fold the tail length in so short writes of different
            // lengths cannot collide trivially.
            self.write_u64(u64::from_le_bytes(tail) ^ ((rem.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(Self::K);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // splitmix64 avalanche: every input bit reaches every output
        // bit even for single-row traces.
        st_sim::hash::mix64(self.0)
    }
}

/// One local clock cycle's I/O, in channel order (the owned form, for
/// building traces by hand; recorded traces hand out [`TraceRowRef`]s).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TraceRow {
    /// 0-based local cycle index (never counts stopped-clock time).
    pub cycle: u64,
    /// Word presented by each input channel this cycle (`None` = nothing).
    pub reads: Vec<Option<u64>>,
    /// Word transmitted on each output channel this cycle.
    pub writes: Vec<Option<u64>>,
}

/// One recorded row, borrowed from the trace's columns. Its derived
/// `Hash` emits exactly the stream a [`TraceRow`] would (a slice hashes
/// like a `Vec`), which is what keeps [`SbIoTrace::digest`] stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceRowRef<'a> {
    /// 0-based local cycle index.
    pub cycle: u64,
    /// Word presented by each input channel this cycle.
    pub reads: &'a [Option<u64>],
    /// Word transmitted on each output channel this cycle.
    pub writes: &'a [Option<u64>],
}

/// Rows reserved up front for a limited trace; larger limits grow past
/// this by doubling, so a corrupt decoded limit cannot balloon memory.
const RESERVE_ROWS_MAX: usize = 1 << 16;

/// The captured I/O sequence of one synchronous block, stored
/// columnar so recording a row never allocates once capacity exists:
/// per row a cycle and two end offsets into one flat cell buffer
/// holding the row's reads, then its writes. The digest is folded as
/// each row lands.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct SbIoTrace {
    limit: usize,
    cycles: Vec<u64>,
    /// Per row: the end of its reads and the end of its writes in `cells`.
    ends: Vec<[u32; 2]>,
    cells: Vec<Option<u64>>,
    hasher: DigestHasher,
}

impl Clone for SbIoTrace {
    fn clone(&self) -> Self {
        SbIoTrace {
            limit: self.limit,
            cycles: self.cycles.clone(),
            ends: self.ends.clone(),
            cells: self.cells.clone(),
            hasher: self.hasher.clone(),
        }
    }

    // Reuses the existing buffers, so checkpoint rewind into a warm
    // engine never reallocates.
    fn clone_from(&mut self, source: &Self) {
        self.limit = source.limit;
        self.cycles.clone_from(&source.cycles);
        self.ends.clone_from(&source.ends);
        self.cells.clone_from(&source.cells);
        self.hasher = source.hasher.clone();
    }
}

/// Magic prefix of the canonical trace encoding.
pub const CANON_MAGIC: &[u8; 4] = b"STIO";
/// Version byte of the canonical trace encoding.
pub const CANON_VERSION: u8 = 1;

/// Decoding failures for [`SbIoTrace::from_canonical_bytes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CanonError {
    /// The input ended before the encoding was complete.
    Truncated,
    /// The magic prefix is not `"STIO"`.
    BadMagic,
    /// An unknown format version byte.
    BadVersion(u8),
    /// An option tag other than 0 or 1.
    BadTag(u8),
    /// Well-formed encoding followed by extra bytes (count).
    TrailingBytes(usize),
}

impl fmt::Display for CanonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CanonError::Truncated => write!(f, "canonical trace truncated"),
            CanonError::BadMagic => write!(f, "not a canonical trace (bad magic)"),
            CanonError::BadVersion(v) => write!(f, "unknown canonical trace version {v}"),
            CanonError::BadTag(t) => write!(f, "invalid option tag {t:#04x}"),
            CanonError::TrailingBytes(n) => write!(f, "{n} trailing bytes after trace"),
        }
    }
}

impl std::error::Error for CanonError {}

impl SbIoTrace {
    /// A trace that records at most `limit` cycles (0 = unlimited).
    pub fn with_limit(limit: usize) -> Self {
        SbIoTrace {
            limit,
            ..SbIoTrace::default()
        }
    }

    /// The most cycles this trace records (0 = unlimited).
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Appends a row if the limit allows.
    pub fn record(&mut self, row: TraceRow) {
        self.record_with(row.cycle, row.reads, row.writes);
    }

    /// Appends the row of local cycle `cycle` if the limit allows,
    /// copying the words straight out of the iterators (which are left
    /// unconsumed once the trace is full). This is the engines'
    /// per-edge recording call: no row is ever materialized.
    pub fn record_with(
        &mut self,
        cycle: u64,
        reads: impl IntoIterator<Item = Option<u64>>,
        writes: impl IntoIterator<Item = Option<u64>>,
    ) {
        if self.is_full() {
            return;
        }
        let (reads, writes) = (reads.into_iter(), writes.into_iter());
        if self.cycles.is_empty() && self.limit > 0 {
            // Size the columns for the whole trace on the first row, so
            // a limited trace never doubles past its limit.
            let rows = self.limit.min(RESERVE_ROWS_MAX);
            let width = reads.size_hint().0 + writes.size_hint().0;
            self.cycles.reserve_exact(rows);
            self.ends.reserve_exact(rows);
            self.cells.reserve_exact(rows * width);
        }
        let start = self.cells.len();
        self.cells.extend(reads);
        let mid = self.cells.len();
        self.cells.extend(writes);
        self.push_row(cycle, start, mid);
    }

    /// Closes the row whose reads occupy `cells[start..mid]` and whose
    /// writes run from `mid` to the end, folding it into the digest.
    fn push_row(&mut self, cycle: u64, start: usize, mid: usize) {
        let end = self.cells.len();
        self.cycles.push(cycle);
        self.ends.push([cell_offset(mid), cell_offset(end)]);
        TraceRowRef {
            cycle,
            reads: &self.cells[start..mid],
            writes: &self.cells[mid..end],
        }
        .hash(&mut self.hasher);
    }

    /// True when the limit is reached and further rows would be dropped.
    pub fn is_full(&self) -> bool {
        self.limit != 0 && self.cycles.len() >= self.limit
    }

    /// Number of recorded cycles.
    pub fn len(&self) -> usize {
        self.cycles.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.cycles.is_empty()
    }

    /// End of the first `rows` rows' cells.
    fn cells_end(&self, rows: usize) -> usize {
        rows.checked_sub(1).map_or(0, |r| self.ends[r][1] as usize)
    }

    /// Row `i`, borrowed from the columns.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn row(&self, i: usize) -> TraceRowRef<'_> {
        let start = self.cells_end(i);
        let [mid, end] = self.ends[i].map(|o| o as usize);
        TraceRowRef {
            cycle: self.cycles[i],
            reads: &self.cells[start..mid],
            writes: &self.cells[mid..end],
        }
    }

    /// The recorded rows, in cycle order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = TraceRowRef<'_>> + '_ {
        (0..self.len()).map(|i| self.row(i))
    }

    /// A 64-bit digest of the whole sequence (for campaign-scale
    /// comparison without keeping every trace in memory). Each row is
    /// folded in as it is recorded, so this is O(1). Digests are
    /// deterministic within a process run; durable content addressing
    /// goes through [`to_canonical_bytes`](Self::to_canonical_bytes).
    pub fn digest(&self) -> u64 {
        self.hasher.finish()
    }

    /// First cycle index at which the traces differ, comparing the common
    /// prefix; `None` if the compared prefix matches (length differences
    /// over `min_len` are ignored).
    pub fn first_divergence(&self, other: &SbIoTrace) -> Option<u64> {
        let n = self.len().min(other.len());
        if self.prefix_eq(other, n) {
            return None;
        }
        (0..n)
            .find(|&i| self.row(i) != other.row(i))
            .map(|i| self.cycles[i])
    }

    /// True when both traces recorded at least `cycles` rows and agree on
    /// all of the first `cycles`.
    pub fn matches_for(&self, other: &SbIoTrace, cycles: usize) -> bool {
        self.len() >= cycles && other.len() >= cycles && self.prefix_eq(other, cycles)
    }

    /// The first `rows` rows of both traces are equal. Equal rows mean
    /// equal cumulative offsets, so the columns compare as flat slices.
    fn prefix_eq(&self, other: &SbIoTrace, rows: usize) -> bool {
        self.cycles[..rows] == other.cycles[..rows]
            && self.ends[..rows] == other.ends[..rows]
            && self.cells[..self.cells_end(rows)] == other.cells[..other.cells_end(rows)]
    }

    /// All words delivered on input `idx`, in cycle order.
    pub fn input_words(&self, idx: usize) -> Vec<u64> {
        self.iter()
            .filter_map(|r| r.reads.get(idx).copied().flatten())
            .collect()
    }

    /// All words transmitted on output `idx`, in cycle order.
    pub fn output_words(&self, idx: usize) -> Vec<u64> {
        self.iter()
            .filter_map(|r| r.writes.get(idx).copied().flatten())
            .collect()
    }

    /// Serializes the trace to its canonical byte form.
    ///
    /// The encoding is a pure function of the trace's value — fixed
    /// little-endian field widths, no padding, no platform-dependent
    /// content — so equal traces always produce equal bytes and the
    /// bytes are stable across processes and machines. That property is
    /// what makes cached campaign results *content-addressable*
    /// (`st-serve` keys its result store by a hash of canonical bytes)
    /// and served results byte-comparable to locally computed ones.
    ///
    /// Layout: magic `"STIO"`, version `1`, `limit: u64`,
    /// `row_count: u64`, then per row `cycle: u64`,
    /// `reads_len: u32`, per read a tag byte (`0` = `None`,
    /// `1` = `Some` followed by the `u64` word), `writes_len: u32`
    /// and the writes likewise. All integers little-endian.
    pub fn to_canonical_bytes(&self) -> Vec<u8> {
        let cell_bytes: usize = self
            .cells
            .iter()
            .map(|c| 1 + 8 * usize::from(c.is_some()))
            .sum();
        let mut out = Vec::with_capacity(21 + self.len() * 16 + cell_bytes);
        out.extend_from_slice(CANON_MAGIC);
        out.push(CANON_VERSION);
        out.extend_from_slice(&(self.limit as u64).to_le_bytes());
        out.extend_from_slice(&(self.len() as u64).to_le_bytes());
        let put_words = |out: &mut Vec<u8>, words: &[Option<u64>]| {
            out.extend_from_slice(&(words.len() as u32).to_le_bytes());
            for w in words {
                match w {
                    None => out.push(0),
                    Some(v) => {
                        out.push(1);
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                }
            }
        };
        for row in self.iter() {
            out.extend_from_slice(&row.cycle.to_le_bytes());
            put_words(&mut out, row.reads);
            put_words(&mut out, row.writes);
        }
        out
    }

    /// Decodes a trace from its canonical byte form
    /// (see [`to_canonical_bytes`](Self::to_canonical_bytes)).
    ///
    /// # Errors
    ///
    /// Rejects wrong magic/version, truncated input, invalid option
    /// tags, and trailing bytes. Decoding is exact: re-encoding the
    /// returned trace reproduces the input byte-for-byte.
    pub fn from_canonical_bytes(bytes: &[u8]) -> Result<SbIoTrace, CanonError> {
        struct Reader<'a>(&'a [u8]);
        impl Reader<'_> {
            fn take<const N: usize>(&mut self) -> Result<[u8; N], CanonError> {
                if self.0.len() < N {
                    return Err(CanonError::Truncated);
                }
                let (head, rest) = self.0.split_at(N);
                self.0 = rest;
                Ok(head.try_into().expect("split_at guarantees length"))
            }
            fn u8(&mut self) -> Result<u8, CanonError> {
                Ok(self.take::<1>()?[0])
            }
            fn u32(&mut self) -> Result<u32, CanonError> {
                Ok(u32::from_le_bytes(self.take()?))
            }
            fn u64(&mut self) -> Result<u64, CanonError> {
                Ok(u64::from_le_bytes(self.take()?))
            }
            /// Appends one length-prefixed word list to `cells`.
            fn words(&mut self, cells: &mut Vec<Option<u64>>) -> Result<(), CanonError> {
                let n = self.u32()? as usize;
                // Cap pre-allocation by what the input could actually
                // hold (1 byte per element minimum): corrupt lengths
                // must not balloon memory before Truncated is hit.
                cells.reserve(n.min(self.0.len()));
                for _ in 0..n {
                    cells.push(match self.u8()? {
                        0 => None,
                        1 => Some(self.u64()?),
                        tag => return Err(CanonError::BadTag(tag)),
                    });
                }
                Ok(())
            }
        }
        let mut r = Reader(bytes);
        if r.take::<4>()? != *CANON_MAGIC {
            return Err(CanonError::BadMagic);
        }
        match r.u8()? {
            CANON_VERSION => {}
            v => return Err(CanonError::BadVersion(v)),
        }
        let mut t = SbIoTrace::with_limit(r.u64()? as usize);
        let row_count = r.u64()?;
        let rows = row_count.min(r.0.len() as u64) as usize;
        t.cycles.reserve(rows);
        t.ends.reserve(rows);
        for _ in 0..row_count {
            let cycle = r.u64()?;
            let start = t.cells.len();
            r.words(&mut t.cells)?;
            let mid = t.cells.len();
            r.words(&mut t.cells)?;
            t.push_row(cycle, start, mid);
        }
        if !r.0.is_empty() {
            return Err(CanonError::TrailingBytes(r.0.len()));
        }
        Ok(t)
    }

    /// A human-readable report of the first divergence against a
    /// reference trace, with `context` rows either side — what a debug
    /// engineer wants from a failed campaign run.
    pub fn diff_report(&self, reference: &SbIoTrace, context: usize) -> String {
        use std::fmt::Write as _;
        let Some(cycle) = reference.first_divergence(self) else {
            return "traces match over the compared prefix".to_owned();
        };
        let mut out = String::new();
        let _ = writeln!(out, "first divergence at local cycle {cycle}:");
        let idx = self
            .cycles
            .iter()
            .position(|&c| c == cycle)
            .unwrap_or(self.len());
        let lo = idx.saturating_sub(context);
        let hi = (idx + context + 1).min(self.len()).min(reference.len());
        for i in lo..hi {
            let (got, want) = (self.row(i), reference.row(i));
            let marker = if got == want { ' ' } else { '>' };
            let _ = writeln!(
                out,
                "{marker} c{:>4}  got  in:{:?} out:{:?}",
                got.cycle, got.reads, got.writes
            );
            if got != want {
                let _ = writeln!(
                    out,
                    "{marker} c{:>4}  want in:{:?} out:{:?}",
                    want.cycle, want.reads, want.writes
                );
            }
        }
        out
    }
}

impl fmt::Display for SbIoTrace {
    /// Prints one line per *active* cycle (cycles with any I/O).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for row in self.iter() {
            let active =
                row.reads.iter().any(Option::is_some) || row.writes.iter().any(Option::is_some);
            if !active {
                continue;
            }
            write!(f, "c{:>4}  in:", row.cycle)?;
            for r in row.reads {
                match r {
                    Some(w) => write!(f, " {w:>6}")?,
                    None => write!(f, "      -")?,
                }
            }
            write!(f, "  out:")?;
            for w in row.writes {
                match w {
                    Some(w) => write!(f, " {w:>6}")?,
                    None => write!(f, "      -")?,
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// A cell offset in the row index. Offsets are `u32` to keep the index
/// at 8 bytes per row; 2^32 cells would be 64 GiB of words.
fn cell_offset(n: usize) -> u32 {
    u32::try_from(n).expect("trace exceeds 2^32 cells")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(cycle: u64, read: Option<u64>, write: Option<u64>) -> TraceRow {
        TraceRow {
            cycle,
            reads: vec![read],
            writes: vec![write],
        }
    }

    #[test]
    fn limit_caps_recording() {
        let mut t = SbIoTrace::with_limit(2);
        for c in 0..5 {
            t.record(row(c, None, None));
        }
        assert_eq!(t.len(), 2);
        let mut unlimited = SbIoTrace::with_limit(0);
        for c in 0..5 {
            unlimited.record(row(c, None, None));
        }
        assert_eq!(unlimited.len(), 5);
        assert!(!unlimited.is_empty());
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let mut a = SbIoTrace::with_limit(0);
        let mut b = SbIoTrace::with_limit(0);
        for c in 0..10 {
            a.record(row(c, Some(c), None));
            b.record(row(c, Some(c), None));
        }
        assert_eq!(a.digest(), b.digest());
        b.record(row(10, Some(999), None));
        // Prefix digest differs from longer trace digest.
        assert_ne!(a.digest(), b.digest());
        let mut c_trace = SbIoTrace::with_limit(0);
        for c in 0..10 {
            c_trace.record(row(c, Some(c + 1), None));
        }
        assert_ne!(a.digest(), c_trace.digest());
    }

    #[test]
    fn divergence_reports_first_mismatching_cycle() {
        let mut a = SbIoTrace::with_limit(0);
        let mut b = SbIoTrace::with_limit(0);
        for c in 0..10 {
            a.record(row(c, Some(c), None));
            b.record(row(c, Some(if c == 7 { 99 } else { c }), None));
        }
        assert_eq!(a.first_divergence(&b), Some(7));
        assert_eq!(a.first_divergence(&a.clone()), None);
    }

    #[test]
    fn matches_for_requires_full_prefix() {
        let mut a = SbIoTrace::with_limit(0);
        let mut b = SbIoTrace::with_limit(0);
        for c in 0..10 {
            a.record(row(c, Some(c), None));
        }
        for c in 0..5 {
            b.record(row(c, Some(c), None));
        }
        assert!(a.matches_for(&b, 5));
        assert!(!a.matches_for(&b, 6), "b is too short for 6 cycles");
    }

    #[test]
    fn word_extraction_skips_gaps() {
        let mut t = SbIoTrace::with_limit(0);
        t.record(row(0, Some(1), Some(10)));
        t.record(row(1, None, None));
        t.record(row(2, Some(3), Some(30)));
        assert_eq!(t.input_words(0), vec![1, 3]);
        assert_eq!(t.output_words(0), vec![10, 30]);
        assert!(t.input_words(5).is_empty());
    }

    #[test]
    fn diff_report_pinpoints_the_divergence() {
        let mut a = SbIoTrace::with_limit(0);
        let mut b = SbIoTrace::with_limit(0);
        for c in 0..10 {
            a.record(row(c, Some(c), None));
            b.record(row(c, Some(if c == 6 { 99 } else { c }), None));
        }
        let report = b.diff_report(&a, 2);
        assert!(report.contains("local cycle 6"));
        assert!(report.contains("99"));
        assert!(report.lines().any(|l| l.starts_with('>')));
        assert_eq!(
            a.diff_report(&a.clone(), 2),
            "traces match over the compared prefix"
        );
    }

    #[test]
    fn display_skips_idle_cycles() {
        let mut t = SbIoTrace::with_limit(0);
        t.record(row(0, Some(1), None));
        t.record(row(1, None, None));
        t.record(row(2, None, Some(5)));
        let s = t.to_string();
        assert!(s.contains("c   0"));
        assert!(!s.contains("c   1"));
        assert!(s.contains("c   2"));
    }
}
