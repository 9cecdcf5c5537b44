//! Per-SB I/O sequence capture — the observable whose invariance defines
//! determinism.
//!
//! The paper's §5 experiment monitors "the data sequences on each SB's
//! I/Os … for the first 100 local clock cycles" and compares them across
//! delay configurations. [`SbIoTrace`] is that record: one row per local
//! cycle, carrying what every input presented and what every output
//! transmitted. Two runs are *deterministically equivalent* when the
//! traces of every SB match exactly.

use st_sim::canon::{Canon, Dec, Enc};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

/// Fast in-process hasher behind [`SbIoTrace::digest`] (FxHash-style
/// multiply-rotate with a splitmix64 finish). SipHash
/// (`DefaultHasher`) dominated sweep profiles. Digest values are
/// compared within a process and never persisted — `st-serve`'s
/// content keys use their own stable FNV over canonical bytes.
#[derive(Default, Clone)]
struct DigestHasher(u64);

impl DigestHasher {
    const K: u64 = 0x517c_c1b7_2722_0a95;
}

impl Hasher for DigestHasher {
    /// Trace rows hash as words only; bytes fold one word each.
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
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
/// holding the row's reads, then its writes. Recording hashes
/// nothing; [`digest`](Self::digest) folds the rows when it is read.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct SbIoTrace {
    limit: usize,
    cycles: Vec<u64>,
    /// Per row: the end of its reads and the end of its writes in `cells`.
    ends: Vec<[u32; 2]>,
    cells: Vec<Option<u64>>,
}

impl Clone for SbIoTrace {
    fn clone(&self) -> Self {
        SbIoTrace {
            limit: self.limit,
            cycles: self.cycles.clone(),
            ends: self.ends.clone(),
            cells: self.cells.clone(),
        }
    }

    // Reuses the existing buffers, so checkpoint rewind into a warm
    // engine never reallocates.
    fn clone_from(&mut self, source: &Self) {
        self.limit = source.limit;
        self.cycles.clone_from(&source.cycles);
        self.ends.clone_from(&source.ends);
        self.cells.clone_from(&source.cells);
    }
}

/// Magic prefix of the canonical trace encoding.
pub const CANON_MAGIC: &[u8; 4] = b"STIO";
/// Version byte of the canonical trace encoding.
pub const CANON_VERSION: u8 = 1;
/// Wire bytes of a row with no reads or writes: its cycle and two list
/// lengths.
const ROW_MIN_BYTES: usize = 16;

/// Decoding failures for [`SbIoTrace::from_canonical_bytes`]: the
/// workspace codec's error type.
pub use st_sim::canon::CanonError;

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
        self.cells.extend(reads);
        let mid = self.cells.len();
        self.cells.extend(writes);
        self.push_row(cycle, mid);
    }

    /// Closes the row whose writes run from `cells[mid..]`.
    fn push_row(&mut self, cycle: u64, mid: usize) {
        self.cycles.push(cycle);
        self.ends
            .push([cell_offset(mid), cell_offset(self.cells.len())]);
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
    /// comparison without keeping every trace in memory). Each call folds
    /// every row, O(rows) without allocating, so read it once per trace.
    /// Digests are deterministic within a process run; durable content
    /// addressing goes through [`to_canonical_bytes`](Self::to_canonical_bytes).
    pub fn digest(&self) -> u64 {
        let mut h = DigestHasher::default();
        self.iter().for_each(|row| row.hash(&mut h));
        h.finish()
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
        let mut e = Enc::with_capacity(21 + self.len() * ROW_MIN_BYTES + cell_bytes);
        e.raw(CANON_MAGIC);
        e.u8(CANON_VERSION);
        (self.limit, self.len()).put(&mut e);
        let put_words = |e: &mut Enc, words: &[Option<u64>]| {
            e.u32(words.len() as u32);
            for w in words {
                w.put(e);
            }
        };
        for row in self.iter() {
            e.u64(row.cycle);
            put_words(&mut e, row.reads);
            put_words(&mut e, row.writes);
        }
        e.into_bytes()
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
        let mut d = Dec::new(bytes);
        d.magic(CANON_MAGIC)?;
        match u8::get(&mut d)? {
            CANON_VERSION => {}
            v => return Err(CanonError::BadVersion(v)),
        }
        let mut t = SbIoTrace::with_limit(usize::get(&mut d)?);
        let row_count = u64::get(&mut d)?;
        // Every row takes at least its cycle and two list lengths on the
        // wire, so the rest of the input holds at most this many.
        let rows = row_count.min((d.remaining() / ROW_MIN_BYTES) as u64);
        d.reserve(&mut t.cycles, rows);
        d.reserve(&mut t.ends, rows);
        // Appends one length-prefixed word list to `cells`.
        let words = |d: &mut Dec<'_>, cells: &mut Vec<Option<u64>>| {
            let n = u32::get(d)?;
            d.reserve(cells, n.into());
            for _ in 0..n {
                cells.push(Option::<u64>::get(d)?);
            }
            Ok::<_, CanonError>(())
        };
        for _ in 0..row_count {
            let cycle = u64::get(&mut d)?;
            words(&mut d, &mut t.cells)?;
            let mid = t.cells.len();
            words(&mut d, &mut t.cells)?;
            t.push_row(cycle, mid);
        }
        d.finish()?;
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

/// Rows a lane-trace store reserves up front: a limit can be any
/// caller-supplied value, far past the cycles that run.
const LANE_RESERVE_ROWS_MAX: usize = 1024;

/// The determinism traces of every lane of one lockstep group on one
/// SB. Lanes of a group make the same control decisions at the same
/// instants, so a row's shape — its cycle, and which inputs presented
/// and which outputs transmitted a word — is shared; only the words
/// differ. Each row stores its cycle and presence bits once, then one
/// lanes-wide column of words per present cell, all in one flat
/// buffer. Recording hashes nothing: the first [`digest`](Self::digest)
/// folds every lane at once over the stored columns and keeps the
/// results until the next row lands. Each equals the digest of the
/// lane's [`SbIoTrace`], which [`lane`](Self::lane) builds on demand.
#[derive(Debug)]
pub(crate) struct LaneTraces {
    limit: usize,
    lanes: usize,
    reads: usize,
    writes: usize,
    /// Presence-bit words per row: bit `i` is input `i`, bit
    /// `reads + k` is output `k`.
    mask_words: usize,
    cycles: Vec<u64>,
    masks: Vec<u64>,
    /// Per present cell, in row then cell order: one word per lane.
    words: Vec<u64>,
    /// Per lane: the digest of the rows recorded so far, once read.
    digests: OnceLock<Box<[u64]>>,
}

impl LaneTraces {
    /// Empty traces of `lanes` lanes on an SB with `reads` inputs and
    /// `writes` outputs, recording at most `limit` rows (0 = unlimited).
    pub(crate) fn new(limit: usize, lanes: usize, reads: usize, writes: usize) -> Self {
        debug_assert!(lanes > 0, "a group has at least one lane");
        LaneTraces {
            limit,
            lanes,
            reads,
            writes,
            mask_words: (reads + writes).div_ceil(64),
            cycles: Vec::new(),
            masks: Vec::new(),
            words: Vec::new(),
            digests: OnceLock::new(),
        }
    }

    /// True when the limit is reached and further rows would be dropped.
    fn is_full(&self) -> bool {
        self.limit != 0 && self.cycles.len() >= self.limit
    }

    /// Appends the row of local cycle `cycle` if the limit allows: per
    /// input, then per output, `None` for nothing or the column of
    /// every lane's word in lane order.
    pub(crate) fn record<'a>(
        &mut self,
        cycle: u64,
        reads: impl IntoIterator<Item = Option<&'a [u64]>>,
        writes: impl IntoIterator<Item = Option<&'a [u64]>>,
    ) {
        if self.is_full() {
            return;
        }
        if self.cycles.is_empty() && self.limit > 0 {
            // Size for the whole trace on the first row, every cell
            // present, so a short limited trace never reallocates.
            let rows = self.limit.min(LANE_RESERVE_ROWS_MAX);
            self.cycles.reserve_exact(rows);
            self.masks.reserve_exact(rows * self.mask_words);
            self.words
                .reserve_exact(rows * (self.reads + self.writes) * self.lanes);
        }
        let mask_at = self.masks.len();
        self.masks.resize(mask_at + self.mask_words, 0);
        let (mask, words) = (&mut self.masks[mask_at..], &mut self.words);
        // Sets the presence bit of the next cell, inputs then outputs.
        let mut bit = 0;
        let mut mark = |present: bool| {
            mask[bit / 64] |= u64::from(present) << (bit % 64);
            bit += 1;
        };
        for cell in reads.into_iter().chain(writes) {
            mark(cell.map(|column| words.extend_from_slice(column)).is_some());
        }
        debug_assert_eq!(bit, self.reads + self.writes);
        debug_assert_eq!(self.words.len() % self.lanes, 0, "a word per lane");
        self.cycles.push(cycle);
        self.digests.take();
    }

    /// Lane `slot`'s trace digest, equal to `self.lane(slot).digest()`.
    /// The first read after a row lands folds every lane's rows.
    pub(crate) fn digest(&self, slot: usize) -> u64 {
        self.digests.get_or_init(|| self.fold())[slot]
    }

    /// Every lane's digest, as one pass over the columns: each step of
    /// [`TraceRowRef`]'s `Hash` stream — the cycle, each slice's length
    /// prefix, each cell's `Option` discriminant (0 or 1, hashed as a
    /// `usize`) and word — is shared by all lanes but the word, which
    /// is one lanes-wide column.
    fn fold(&self) -> Box<[u64]> {
        let mut hs = vec![DigestHasher::default(); self.lanes];
        let all = |hs: &mut [DigestHasher], n: u64| hs.iter_mut().for_each(|h| h.write_u64(n));
        let mut columns = self.words.chunks_exact(self.lanes);
        for (r, &cycle) in self.cycles.iter().enumerate() {
            let mask = &self.masks[r * self.mask_words..][..self.mask_words];
            all(&mut hs, cycle);
            for (from, to) in [(0, self.reads), (self.reads, self.reads + self.writes)] {
                all(&mut hs, (to - from) as u64);
                for i in from..to {
                    if !present(mask, i) {
                        all(&mut hs, 0);
                        continue;
                    }
                    let column = columns.next().expect("a word column per present cell");
                    for (h, &w) in hs.iter_mut().zip(column) {
                        h.write_u64(1);
                        h.write_u64(w);
                    }
                }
            }
        }
        hs.iter().map(Hasher::finish).collect()
    }

    /// Builds lane `slot`'s trace.
    pub(crate) fn lane(&self, slot: usize) -> SbIoTrace {
        let (width, rows) = (self.reads + self.writes, self.cycles.len());
        let mut words = self.words.iter().skip(slot).step_by(self.lanes);
        let mut cells = Vec::with_capacity(rows * width);
        let mut ends = Vec::with_capacity(rows);
        for r in 0..rows {
            let mask = &self.masks[r * self.mask_words..][..self.mask_words];
            cells.extend((0..width).map(|i| {
                present(mask, i).then(|| *words.next().expect("a word per present cell"))
            }));
            ends.push([
                cell_offset(cells.len() - self.writes),
                cell_offset(cells.len()),
            ]);
        }
        SbIoTrace {
            limit: self.limit,
            cycles: self.cycles.clone(),
            ends,
            cells,
        }
    }

    /// The traces of the lanes `part` (slots, in their new order).
    pub(crate) fn select(&self, part: &[usize]) -> LaneTraces {
        let mut words = Vec::with_capacity(self.words.capacity() / self.lanes * part.len());
        for cell in self.words.chunks_exact(self.lanes) {
            words.extend(part.iter().map(|&s| cell[s]));
        }
        let mut cycles = Vec::with_capacity(self.cycles.capacity());
        cycles.extend_from_slice(&self.cycles);
        let mut masks = Vec::with_capacity(self.masks.capacity());
        masks.extend_from_slice(&self.masks);
        LaneTraces {
            lanes: part.len(),
            cycles,
            masks,
            words,
            digests: OnceLock::new(),
            ..*self
        }
    }
}

/// Bit `i` of a row's presence mask.
#[inline]
fn present(mask: &[u64], i: usize) -> bool {
    mask[i / 64] >> (i % 64) & 1 != 0
}

/// A `u32`-length-prefixed STIO blob, as traces travel inside STCP
/// checkpoint payloads.
impl Canon for SbIoTrace {
    fn put(&self, e: &mut Enc) {
        e.bytes(&self.to_canonical_bytes());
    }

    fn get(d: &mut Dec<'_>) -> Result<Self, CanonError> {
        SbIoTrace::from_canonical_bytes(d.bytes()?)
    }
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

    const LANES: usize = 3;

    /// Records the rows of `cycles` of a `reads` x `writes` SB into a
    /// 3-lane store and into one reference trace per lane; each cell is
    /// present on a fixed pseudo-random pattern, lane `l`'s word being
    /// `l` more than lane 0's.
    fn record_rows(
        store: &mut LaneTraces,
        refs: &mut [SbIoTrace],
        (reads, writes): (usize, usize),
        cycles: std::ops::Range<u64>,
    ) {
        for cycle in cycles {
            let cell = |i: usize| {
                let x = st_sim::hash::mix64(cycle * 131 + i as u64);
                (!x.is_multiple_of(3)).then_some(x)
            };
            let lane_cells = |range: std::ops::Range<usize>| -> Vec<Option<Vec<u64>>> {
                let column = |w| (0..LANES as u64).map(|l| w + l).collect();
                range.map(|i| cell(i).map(column)).collect()
            };
            let (r, w) = (lane_cells(0..reads), lane_cells(reads..reads + writes));
            store.record(
                cycle + 7,
                r.iter().map(Option::as_deref),
                w.iter().map(Option::as_deref),
            );
            for (l, t) in refs.iter_mut().enumerate() {
                let word = |i| cell(i).map(|w| w + l as u64);
                t.record_with(
                    cycle + 7,
                    (0..reads).map(word),
                    (reads..reads + writes).map(word),
                );
            }
        }
    }

    #[test]
    fn lane_traces_match_per_lane_traces() {
        // Empty sides, a two-word presence mask (73 cells), and limits
        // that cut the run short or not at all.
        for (reads, writes) in [(0, 0), (0, 2), (3, 0), (2, 3), (70, 3)] {
            for limit in [0, 1, 5, 40] {
                let mut store = LaneTraces::new(limit, LANES, reads, writes);
                let mut refs = vec![SbIoTrace::with_limit(limit); LANES];
                // Digests read after 10 rows must fold again once more
                // rows land.
                record_rows(&mut store, &mut refs, (reads, writes), 0..10);
                for (slot, reference) in refs.iter().enumerate() {
                    assert_eq!(store.digest(slot), reference.digest());
                }
                record_rows(&mut store, &mut refs, (reads, writes), 10..20);
                for (slot, reference) in refs.iter().enumerate() {
                    let built = store.lane(slot);
                    assert_eq!(
                        built, *reference,
                        "{reads}x{writes} limit {limit} lane {slot}"
                    );
                    assert_eq!(store.digest(slot), built.digest());
                }
                let picked = store.select(&[2, 0]);
                for (slot, &from) in [2, 0].iter().enumerate() {
                    assert_eq!(picked.lane(slot), refs[from]);
                    assert_eq!(picked.digest(slot), refs[from].digest());
                }
                assert_eq!(store.is_full(), limit != 0 && limit <= 20);
            }
        }
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
