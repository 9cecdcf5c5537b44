//! User-provided synchronous-block behaviour.
//!
//! A synchronous block is, per the paper's determinism definition (§1),
//! "delay-insensitive combinational logic \[that\] uniquely defines the next
//! state and outputs as a function of the current state and inputs". Here
//! that contract is a trait: [`SyncLogic::tick`] is called exactly once
//! per local clock cycle and must be a pure function of the block's own
//! state and the presented port values.

use st_sim::canon::{decode, decode_with, Canon, Enc};
use std::any::Any;

/// What an input channel presents to the SB during one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InputView {
    /// The word delivered this cycle, if the interface is enabled and the
    /// channel FIFO had one at its head.
    pub data: Option<u64>,
    /// True while the interface is enabled by its node (`sbena`).
    pub enabled: bool,
    /// True when enabled and the FIFO head was empty ("informs the SB
    /// when the FIFO is empty").
    pub empty: bool,
}

/// One output channel's per-cycle state and send slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OutputSlot {
    /// True when the interface is enabled and the FIFO can accept a word.
    pub can_send: bool,
    /// The word the logic wants to transmit this cycle.
    pub word: Option<u64>,
}

/// The per-cycle I/O view handed to [`SyncLogic::tick`].
///
/// Inputs and outputs are indexed in channel-id order of the channels
/// that end (respectively start) at this SB.
#[derive(Debug)]
pub struct SbIo<'a> {
    inputs: &'a [InputView],
    outputs: &'a mut [OutputSlot],
}

impl<'a> SbIo<'a> {
    pub(crate) fn new(inputs: &'a [InputView], outputs: &'a mut [OutputSlot]) -> Self {
        SbIo { inputs, outputs }
    }

    /// Number of input channels.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of output channels.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// The view of input channel `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn input(&self, idx: usize) -> InputView {
        self.inputs[idx]
    }

    /// Received word on input `idx`, if any, this cycle.
    pub fn recv(&self, idx: usize) -> Option<u64> {
        self.inputs[idx].data
    }

    /// True when output `idx` can accept a word this cycle.
    pub fn can_send(&self, idx: usize) -> bool {
        self.outputs[idx].can_send
    }

    /// Queues `word` on output `idx`; returns whether it will actually be
    /// transmitted (i.e. [`can_send`](Self::can_send) was true).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn send(&mut self, idx: usize, word: u64) -> bool {
        self.outputs[idx].word = Some(word);
        self.outputs[idx].can_send
    }
}

/// Deterministic synchronous-block behaviour.
///
/// The implementation must be a deterministic Mealy machine: no clocks,
/// no randomness, no wall-time — just current state and the `SbIo` view.
/// (`Any` is required so the block's final state can be inspected after
/// simulation via [`crate::system::System::logic`].)
pub trait SyncLogic: Any {
    /// Executes one local clock cycle. `cycle` is the 0-based local cycle
    /// index (it never counts stopped-clock wall time).
    fn tick(&mut self, cycle: u64, io: &mut SbIo<'_>);

    /// Serializes the logic's *dynamic* state for checkpointing.
    ///
    /// Returning `None` (the default) marks the logic as
    /// non-checkpointable; [`crate::checkpoint`] refuses to snapshot a
    /// system containing such a block. Construction-time parameters need
    /// not be included — resume rebuilds the logic from the same builder
    /// and then calls [`restore_state`](Self::restore_state) — but any
    /// value that evolves across [`tick`](Self::tick) calls must be. The
    /// encoding is private to the implementation; it only has to
    /// round-trip through `restore_state` on an identically-constructed
    /// instance.
    fn save_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores state previously produced by [`save_state`](Self::save_state)
    /// on an identically-constructed instance. Returns `false` if the
    /// bytes are malformed (resume then fails cleanly).
    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        let _ = bytes;
        false
    }
}

/// Emits an arithmetic sequence on output 0 whenever the channel can
/// accept a word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequenceSource {
    next: u64,
    step: u64,
    /// Words actually sent.
    pub sent: u64,
}

impl SequenceSource {
    /// Starts at `start`, incrementing by `step` per transmitted word.
    pub fn new(start: u64, step: u64) -> Self {
        SequenceSource {
            next: start,
            step,
            sent: 0,
        }
    }
}

impl SyncLogic for SequenceSource {
    fn tick(&mut self, _cycle: u64, io: &mut SbIo<'_>) {
        if io.num_outputs() > 0 && io.can_send(0) {
            io.send(0, self.next);
            self.next = self.next.wrapping_add(self.step);
            self.sent += 1;
        }
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        let mut e = Enc::with_capacity(24);
        (self.next, self.step, self.sent).put(&mut e);
        Some(e.into_bytes())
    }

    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        let Ok((next, step, sent)) = decode(bytes) else {
            return false;
        };
        self.next = next;
        self.step = step;
        self.sent = sent;
        true
    }
}

/// Collects every word received on every input, in arrival order, with
/// the local cycle it arrived on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SinkCollect {
    /// `(input index, local cycle, word)` triples.
    pub received: Vec<(usize, u64, u64)>,
}

impl SinkCollect {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The words received on input `idx`, in order.
    pub fn words_on(&self, idx: usize) -> Vec<u64> {
        self.received
            .iter()
            .filter(|(i, _, _)| *i == idx)
            .map(|(_, _, w)| *w)
            .collect()
    }
}

impl SyncLogic for SinkCollect {
    fn tick(&mut self, cycle: u64, io: &mut SbIo<'_>) {
        for i in 0..io.num_inputs() {
            if let Some(w) = io.recv(i) {
                self.received.push((i, cycle, w));
            }
        }
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        let mut e = Enc::with_capacity(8 + 24 * self.received.len());
        e.seq(self.received.iter().copied());
        Some(e.into_bytes())
    }

    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        let Ok(received) = decode_with(bytes, |d| d.seq()) else {
            return false;
        };
        self.received = received;
        true
    }
}

/// Forwards input 0 to output 0 through a deterministic function, with a
/// small internal queue for cycles where the output is blocked.
pub struct PipeTransform {
    f: Box<dyn Fn(u64) -> u64>,
    queue: std::collections::VecDeque<u64>,
    /// Words forwarded so far.
    pub forwarded: u64,
    /// Words dropped because the internal queue overflowed.
    pub dropped: u64,
    capacity: usize,
}

impl std::fmt::Debug for PipeTransform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipeTransform")
            .field("queued", &self.queue.len())
            .field("forwarded", &self.forwarded)
            .field("dropped", &self.dropped)
            .finish()
    }
}

impl PipeTransform {
    /// A pipe applying `f` with an internal queue of `capacity` words.
    pub fn new(capacity: usize, f: impl Fn(u64) -> u64 + 'static) -> Self {
        PipeTransform {
            f: Box::new(f),
            queue: std::collections::VecDeque::new(),
            forwarded: 0,
            dropped: 0,
            capacity,
        }
    }
}

impl SyncLogic for PipeTransform {
    fn tick(&mut self, _cycle: u64, io: &mut SbIo<'_>) {
        if let Some(w) = io.recv(0) {
            if self.queue.len() < self.capacity {
                self.queue.push_back((self.f)(w));
            } else {
                self.dropped += 1;
            }
        }
        if io.num_outputs() > 0 && io.can_send(0) {
            if let Some(w) = self.queue.pop_front() {
                io.send(0, w);
                self.forwarded += 1;
            }
        }
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        // `f` and `capacity` are construction-time; only the queue and
        // counters evolve.
        let mut e = Enc::with_capacity(24 + 8 * self.queue.len());
        e.seq(self.queue.iter().copied());
        (self.forwarded, self.dropped).put(&mut e);
        Some(e.into_bytes())
    }

    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        let Ok((queue, (forwarded, dropped))) =
            decode_with(bytes, |d| Ok((d.seq()?, Canon::get(d)?)))
        else {
            return false;
        };
        self.queue = queue.into();
        self.forwarded = forwarded;
        self.dropped = dropped;
        true
    }
}

/// Packs `lanes` consecutive 16-bit words of an arithmetic sequence
/// into each transmitted 64-bit channel word — the simulated form of the
/// §5 width-compensation trade-off (a widened channel carries several
/// base words per transfer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackingSource {
    next: u64,
    lanes: u32,
    /// Base words sent (lanes × transfers).
    pub base_words_sent: u64,
}

impl PackingSource {
    /// A source packing `lanes` (1–4) base words per transfer.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is not in `1..=4`.
    pub fn new(start: u64, lanes: u32) -> Self {
        assert!((1..=4).contains(&lanes), "lanes must be 1-4");
        PackingSource {
            next: start,
            lanes,
            base_words_sent: 0,
        }
    }
}

impl SyncLogic for PackingSource {
    fn tick(&mut self, _cycle: u64, io: &mut SbIo<'_>) {
        if io.num_outputs() > 0 && io.can_send(0) {
            let mut word = 0u64;
            for lane in 0..self.lanes {
                word |= (self.next & 0xFFFF) << (16 * lane);
                self.next = self.next.wrapping_add(1);
            }
            io.send(0, word);
            self.base_words_sent += u64::from(self.lanes);
        }
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        let mut e = Enc::with_capacity(24);
        (self.next, u64::from(self.lanes), self.base_words_sent).put(&mut e);
        Some(e.into_bytes())
    }

    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        let Ok((next, lanes, sent)) = decode::<(u64, u64, u64)>(bytes) else {
            return false;
        };
        if lanes != u64::from(self.lanes) {
            return false;
        }
        self.next = next;
        self.base_words_sent = sent;
        true
    }
}

/// Unpacks the `lanes`-wide words of a [`PackingSource`] back into base
/// words, verifying the arithmetic sequence on the fly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnpackingSink {
    lanes: u32,
    expected_next: u64,
    /// Base words received in sequence.
    pub base_words_received: u64,
    /// Sequence violations observed (must stay zero).
    pub sequence_errors: u64,
}

impl UnpackingSink {
    /// A sink expecting `lanes` base words per transfer, starting at
    /// `start`.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is not in `1..=4`.
    pub fn new(start: u64, lanes: u32) -> Self {
        assert!((1..=4).contains(&lanes), "lanes must be 1-4");
        UnpackingSink {
            lanes,
            expected_next: start,
            base_words_received: 0,
            sequence_errors: 0,
        }
    }
}

impl SyncLogic for UnpackingSink {
    fn tick(&mut self, _cycle: u64, io: &mut SbIo<'_>) {
        if io.num_inputs() == 0 {
            return;
        }
        if let Some(word) = io.recv(0) {
            for lane in 0..self.lanes {
                let got = (word >> (16 * lane)) & 0xFFFF;
                if got != self.expected_next & 0xFFFF {
                    self.sequence_errors += 1;
                }
                self.expected_next = self.expected_next.wrapping_add(1);
                self.base_words_received += 1;
            }
        }
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        let mut e = Enc::with_capacity(32);
        (u64::from(self.lanes), self.expected_next).put(&mut e);
        (self.base_words_received, self.sequence_errors).put(&mut e);
        Some(e.into_bytes())
    }

    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        let Ok((lanes, next, recv, errs)) = decode::<(u64, u64, u64, u64)>(bytes) else {
            return false;
        };
        if lanes != u64::from(self.lanes) {
            return false;
        }
        self.expected_next = next;
        self.base_words_received = recv;
        self.sequence_errors = errs;
        true
    }
}

/// A block with no ports or nothing to do; useful as a placeholder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdleLogic;

impl SyncLogic for IdleLogic {
    fn tick(&mut self, _cycle: u64, _io: &mut SbIo<'_>) {}

    fn save_state(&self) -> Option<Vec<u8>> {
        Some(Vec::new())
    }

    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        bytes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn io_fixture<'a>(inputs: &'a [InputView], outputs: &'a mut [OutputSlot]) -> SbIo<'a> {
        SbIo::new(inputs, outputs)
    }

    #[test]
    fn overflowing_state_counts_are_rejected() {
        // 2^61 records would wrap a hand-computed byte length back to
        // the bare header (24 * 2^61 and 8 * 2^61 are multiples of 2^64).
        let count = st_sim::canon::encode(&(1u64 << 61));
        assert!(!SinkCollect::new().restore_state(&count));
        let mut pipe = count.clone();
        pipe.extend_from_slice(&[0; 16]);
        assert!(!PipeTransform::new(4, |w| w).restore_state(&pipe));
    }

    #[test]
    fn send_reports_deliverability() {
        let inputs = [];
        let mut outputs = [
            OutputSlot {
                can_send: true,
                word: None,
            },
            OutputSlot {
                can_send: false,
                word: None,
            },
        ];
        let mut io = io_fixture(&inputs, &mut outputs);
        assert!(io.send(0, 42));
        assert!(!io.send(1, 43));
        assert_eq!(outputs[0].word, Some(42));
        assert_eq!(outputs[1].word, Some(43), "the attempt is still recorded");
    }

    #[test]
    fn sequence_source_only_advances_when_sendable() {
        let mut src = SequenceSource::new(100, 10);
        let inputs = [];
        let mut outputs = [OutputSlot::default()]; // cannot send
        src.tick(0, &mut io_fixture(&inputs, &mut outputs));
        assert_eq!(src.sent, 0);
        let mut outputs = [OutputSlot {
            can_send: true,
            word: None,
        }];
        src.tick(1, &mut io_fixture(&inputs, &mut outputs));
        assert_eq!(outputs[0].word, Some(100));
        src.tick(
            2,
            &mut io_fixture(
                &inputs,
                &mut [OutputSlot {
                    can_send: true,
                    word: None,
                }],
            ),
        );
        assert_eq!(src.sent, 2);
    }

    #[test]
    fn sink_records_arrival_cycles() {
        let mut sink = SinkCollect::new();
        let mut outputs = [];
        let inputs = [InputView {
            data: Some(7),
            enabled: true,
            empty: false,
        }];
        sink.tick(3, &mut io_fixture(&inputs, &mut outputs));
        let inputs = [InputView::default()];
        sink.tick(4, &mut io_fixture(&inputs, &mut outputs));
        assert_eq!(sink.received, vec![(0, 3, 7)]);
        assert_eq!(sink.words_on(0), vec![7]);
        assert!(sink.words_on(1).is_empty());
    }

    #[test]
    fn pipe_buffers_under_backpressure() {
        let mut pipe = PipeTransform::new(2, |w| w * 2);
        let mut blocked = [OutputSlot::default()];
        let input7 = [InputView {
            data: Some(7),
            enabled: true,
            empty: false,
        }];
        pipe.tick(0, &mut io_fixture(&input7, &mut blocked));
        let input8 = [InputView {
            data: Some(8),
            enabled: true,
            empty: false,
        }];
        pipe.tick(1, &mut io_fixture(&input8, &mut blocked));
        assert_eq!(pipe.queue.len(), 2);
        // Third word overflows the 2-deep queue.
        let input9 = [InputView {
            data: Some(9),
            enabled: true,
            empty: false,
        }];
        pipe.tick(2, &mut io_fixture(&input9, &mut blocked));
        assert_eq!(pipe.dropped, 1);
        // Unblock: words emerge doubled, in order.
        let none = [InputView::default()];
        let mut open = [OutputSlot {
            can_send: true,
            word: None,
        }];
        pipe.tick(3, &mut io_fixture(&none, &mut open));
        assert_eq!(open[0].word, Some(14));
        let mut open = [OutputSlot {
            can_send: true,
            word: None,
        }];
        pipe.tick(4, &mut io_fixture(&none, &mut open));
        assert_eq!(open[0].word, Some(16));
        assert_eq!(pipe.forwarded, 2);
    }

    #[test]
    fn packing_round_trip_through_views() {
        let mut src = PackingSource::new(100, 3);
        let mut slots = [OutputSlot {
            can_send: true,
            word: None,
        }];
        src.tick(0, &mut io_fixture(&[], &mut slots));
        let word = slots[0].word.expect("sent");
        let mut sink = UnpackingSink::new(100, 3);
        let inputs = [InputView {
            data: Some(word),
            enabled: true,
            empty: false,
        }];
        sink.tick(1, &mut io_fixture(&inputs, &mut []));
        assert_eq!(sink.base_words_received, 3);
        assert_eq!(sink.sequence_errors, 0);
        assert_eq!(src.base_words_sent, 3);
    }

    #[test]
    fn unpacking_detects_corruption() {
        let mut sink = UnpackingSink::new(0, 2);
        let inputs = [InputView {
            data: Some(0xFFFF_0000), // lane0 wrong, lane1 wrong
            enabled: true,
            empty: false,
        }];
        sink.tick(0, &mut io_fixture(&inputs, &mut []));
        assert!(sink.sequence_errors > 0);
    }

    #[test]
    #[should_panic(expected = "lanes must be 1-4")]
    fn packing_lane_bounds() {
        let _ = PackingSource::new(0, 5);
    }

    #[test]
    fn idle_logic_does_nothing() {
        let mut idle = IdleLogic;
        let inputs = [];
        let mut outputs = [];
        idle.tick(0, &mut io_fixture(&inputs, &mut outputs));
    }
}
