//! Self-timed FIFO with bundled data.
//!
//! The paper's communication channels "may be pipelined with self-timed
//! FIFOs"; each stage is a latch plus completion-detection control and
//! forwards its word to the next empty stage after a propagation delay
//! `F`. This component models the whole chain at the event level; the
//! gate-level structure (for Table 1's area model) lives in `st-cells`.
//!
//! # Port protocol
//!
//! * **Tail (producer side)** — the producer checks [`full`] low, sets
//!   `put_data`, and toggles `put_req` (transition signalling). `full` is
//!   the occupancy of the tail stage; it deasserts as soon as the word
//!   moves forward, which takes one stage delay — matching the paper's
//!   requirement that "each stage … complete a four-phase handshake within
//!   one local clock cycle" when `F` is shorter than the local period.
//! * **Head (consumer side)** — `head_valid` is high while the head stage
//!   holds a word, with the word on `head_data`; the consumer toggles
//!   `get_ack` to pop it.
//!
//! [`full`]: FifoPorts::full

use st_sim::prelude::*;

/// Timer tag: a word attempts to advance from stage `tag` to `tag + 1`.
///
/// Using the stage index as the tag keeps every in-flight movement
/// distinguishable.
fn move_tag(stage: usize) -> u64 {
    stage as u64
}

/// The signals of one [`SelfTimedFifo`].
#[derive(Debug, Clone, Copy)]
pub struct FifoPorts {
    /// Producer toggles to push `put_data` into the tail.
    pub put_req: BitSignal,
    /// Word to push, sampled on `put_req` transitions.
    pub put_data: WordSignal,
    /// High while the tail stage is occupied (pushing now would overrun).
    pub full: BitSignal,
    /// High while the head stage holds a word.
    pub head_valid: BitSignal,
    /// The word at the head (valid while `head_valid`).
    pub head_data: WordSignal,
    /// Consumer toggles to pop the head word.
    pub get_ack: BitSignal,
}

impl FifoPorts {
    /// Declares a fresh set of FIFO signals named `<name>.<port>`.
    pub fn declare(b: &mut SimBuilder, name: &str) -> Self {
        FifoPorts {
            put_req: b.add_bit_signal_init(&format!("{name}.put_req"), Bit::Zero),
            put_data: b.add_word_signal(&format!("{name}.put_data")),
            full: b.add_bit_signal_init(&format!("{name}.full"), Bit::Zero),
            head_valid: b.add_bit_signal_init(&format!("{name}.head_valid"), Bit::Zero),
            head_data: b.add_word_signal(&format!("{name}.head_data")),
            get_ack: b.add_bit_signal_init(&format!("{name}.get_ack"), Bit::Zero),
        }
    }
}

/// Dynamic state of a [`SelfTimedFifo`], captured for checkpointing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FifoSnapshot {
    /// Stage contents, tail first.
    pub stages: Vec<Option<u64>>,
    /// Total successful pushes.
    pub pushes: u64,
    /// Total successful pops.
    pub pops: u64,
    /// Highest occupancy ever reached.
    pub max_occupancy: usize,
    /// Producer protocol violations.
    pub overruns: u64,
    /// Consumer protocol violations.
    pub underruns: u64,
}

// The STCP event-payload layout of one FIFO.
st_sim::canon_record!(FifoSnapshot {
    stages,
    pushes,
    pops,
    max_occupancy,
    overruns,
    underruns,
});

/// Event-level model of a self-timed FIFO chain.
///
/// # Examples
///
/// See the crate-level documentation.
#[derive(Debug)]
pub struct SelfTimedFifo {
    ports: FifoPorts,
    /// `stages[0]` is the tail (insertion point); the last is the head.
    stages: Vec<Option<u64>>,
    /// Forward latency of one stage.
    stage_delay: SimDuration,
    pushes: u64,
    pops: u64,
    max_occupancy: usize,
    /// Set when a push overruns the tail stage (a protocol violation by
    /// the producer); checked by tests and the determinism harness.
    overruns: u64,
    /// Set when a pop fires with no word at the head.
    underruns: u64,
}

impl SelfTimedFifo {
    /// Creates a FIFO with `depth` stages and per-stage delay `stage_delay`.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(ports: FifoPorts, depth: usize, stage_delay: SimDuration) -> Self {
        assert!(depth > 0, "fifo depth must be non-zero");
        SelfTimedFifo {
            ports,
            stages: vec![None; depth],
            stage_delay,
            pushes: 0,
            pops: 0,
            max_occupancy: 0,
            overruns: 0,
            underruns: 0,
        }
    }

    /// The FIFO's port bundle.
    pub fn ports(&self) -> FifoPorts {
        self.ports
    }

    /// Number of stages.
    pub fn depth(&self) -> usize {
        self.stages.len()
    }

    /// Words currently in flight.
    pub fn occupancy(&self) -> usize {
        self.stages.iter().filter(|s| s.is_some()).count()
    }

    /// Total successful pushes.
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Total successful pops.
    pub fn pops(&self) -> u64 {
        self.pops
    }

    /// Highest occupancy ever reached.
    pub fn max_occupancy(&self) -> usize {
        self.max_occupancy
    }

    /// Producer protocol violations observed (push while full).
    pub fn overruns(&self) -> u64 {
        self.overruns
    }

    /// Consumer protocol violations observed (pop while empty).
    pub fn underruns(&self) -> u64 {
        self.underruns
    }

    /// Captures the FIFO's dynamic state for checkpointing. In-flight
    /// stage movements live in the kernel's timer events, which the
    /// kernel snapshot carries, so the component side is just the stage
    /// contents and counters.
    pub fn snapshot(&self) -> FifoSnapshot {
        FifoSnapshot {
            stages: self.stages.clone(),
            pushes: self.pushes,
            pops: self.pops,
            max_occupancy: self.max_occupancy,
            overruns: self.overruns,
            underruns: self.underruns,
        }
    }

    /// Restores state captured by [`SelfTimedFifo::snapshot`]. Returns
    /// false when the snapshot's depth does not match this FIFO.
    pub fn restore(&mut self, snap: &FifoSnapshot) -> bool {
        if snap.stages.len() != self.stages.len() {
            return false;
        }
        self.stages.clone_from(&snap.stages);
        self.pushes = snap.pushes;
        self.pops = snap.pops;
        self.max_occupancy = snap.max_occupancy;
        self.overruns = snap.overruns;
        self.underruns = snap.underruns;
        true
    }

    /// Registers the component and its sensitivities; returns the handle.
    pub fn install(self, b: &mut SimBuilder, name: &str) -> Handle<SelfTimedFifo> {
        let ports = self.ports;
        let h = b.add_component(name, self);
        b.watch(h.id(), ports.put_req.id());
        b.watch(h.id(), ports.get_ack.id());
        h
    }

    fn head_index(&self) -> usize {
        self.stages.len() - 1
    }

    fn publish_tail(&self, ctx: &mut Ctx<'_>) {
        ctx.drive_bit(self.ports.full, self.stages[0].is_some(), SimDuration::ZERO);
    }

    fn publish_head(&self, ctx: &mut Ctx<'_>) {
        let head = self.stages[self.head_index()];
        ctx.drive_bit(self.ports.head_valid, head.is_some(), SimDuration::ZERO);
        if let Some(w) = head {
            ctx.drive_word(self.ports.head_data, w, SimDuration::ZERO);
        }
    }

    /// Schedules an advance attempt for the word in `stage`.
    fn schedule_move(&self, ctx: &mut Ctx<'_>, stage: usize) {
        if stage < self.head_index() {
            ctx.set_timer(self.stage_delay, move_tag(stage));
        }
    }

    fn note_occupancy(&mut self) {
        self.max_occupancy = self.max_occupancy.max(self.occupancy());
    }
}

impl Component for SelfTimedFifo {
    fn wake(&mut self, ctx: &mut Ctx<'_>, cause: Wake) {
        match cause {
            Wake::Start => {
                self.publish_tail(ctx);
                self.publish_head(ctx);
            }
            Wake::Signal(sig) if sig == self.ports.put_req.id() => {
                let word = ctx
                    .word(self.ports.put_data)
                    .expect("put_req toggled with undriven put_data");
                if self.stages[0].is_some() {
                    self.overruns += 1;
                    return;
                }
                self.stages[0] = Some(word);
                self.pushes += 1;
                self.note_occupancy();
                self.publish_tail(ctx);
                if self.stages.len() == 1 {
                    self.publish_head(ctx);
                } else {
                    self.schedule_move(ctx, 0);
                }
            }
            Wake::Signal(sig) if sig == self.ports.get_ack.id() => {
                let head = self.head_index();
                if self.stages[head].is_none() {
                    self.underruns += 1;
                    return;
                }
                self.stages[head] = None;
                self.pops += 1;
                self.publish_head(ctx);
                if head == 0 {
                    self.publish_tail(ctx);
                } else if self.stages[head - 1].is_some() {
                    // The word behind the head can now advance.
                    self.schedule_move(ctx, head - 1);
                }
            }
            Wake::Timer(tag) => {
                let stage = tag as usize;
                let Some(word) = self.stages[stage] else {
                    return; // Stale movement (word already popped/advanced).
                };
                if self.stages[stage + 1].is_some() {
                    // Blocked; a later pop/advance will reschedule us.
                    return;
                }
                self.stages[stage + 1] = Some(word);
                self.stages[stage] = None;
                if stage == 0 {
                    self.publish_tail(ctx);
                }
                if stage + 1 == self.head_index() {
                    self.publish_head(ctx);
                } else {
                    self.schedule_move(ctx, stage + 1);
                }
                if stage > 0 && self.stages[stage - 1].is_some() {
                    self.schedule_move(ctx, stage - 1);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::collections::BTreeMap;

    struct Bench {
        sim: Simulator,
        ports: FifoPorts,
        fifo: Handle<SelfTimedFifo>,
        toggles: BTreeMap<SignalId, u64>,
    }

    fn build(depth: usize, f_ns: u64) -> Bench {
        let mut b = SimBuilder::new();
        let ports = FifoPorts::declare(&mut b, "f");
        let fifo = SelfTimedFifo::new(ports, depth, SimDuration::ns(f_ns)).install(&mut b, "fifo");
        Bench {
            sim: b.build(),
            ports,
            fifo,
            toggles: BTreeMap::new(),
        }
    }

    impl Bench {
        /// Drives alternating values on a transition-signalled wire;
        /// assumes calls happen in increasing time order from Zero.
        fn toggle(&mut self, sig: BitSignal, ns: u64) {
            let n = self.toggles.entry(sig.id()).or_insert(0u64);
            *n += 1;
            let v = *n % 2 == 1;
            self.sim
                .drive(sig.id(), Value::from(v), SimDuration::ns(ns));
        }

        fn push_at(&mut self, ns: u64, word: u64) {
            // Data must settle before the request toggles (bundled data).
            self.sim.drive(
                self.ports.put_data.id(),
                Value::Word(word),
                SimDuration::ns(ns),
            );
            let req = self.ports.put_req;
            self.toggle(req, ns + 1);
        }

        fn pop_at(&mut self, ns: u64) {
            let ack = self.ports.get_ack;
            self.toggle(ack, ns);
        }
    }

    #[test]
    fn word_propagates_head_to_tail() {
        let mut bench = build(4, 10);
        bench.push_at(0, 0xFEED);
        bench.sim.run_for(SimDuration::ns(100)).unwrap();
        let f = bench.sim.get(bench.fifo);
        assert_eq!(f.occupancy(), 1);
        assert_eq!(bench.sim.bit(bench.ports.head_valid), Bit::One);
        assert_eq!(bench.sim.word(bench.ports.head_data), Some(0xFEED));
        assert_eq!(bench.sim.bit(bench.ports.full), Bit::Zero);
    }

    #[test]
    fn transit_time_is_depth_minus_one_stage_delays() {
        let mut b = SimBuilder::new();
        let ports = FifoPorts::declare(&mut b, "f");
        b.trace(ports.head_valid.id());
        let _fifo = SelfTimedFifo::new(ports, 4, SimDuration::ns(10)).install(&mut b, "fifo");
        let mut sim = b.build();
        sim.drive(ports.put_data.id(), Value::Word(7), SimDuration::ZERO);
        sim.drive(ports.put_req.id(), Value::from(true), SimDuration::ns(1));
        sim.run_for(SimDuration::ns(100)).unwrap();
        let valid_at = sim
            .trace()
            .changes(ports.head_valid.id())
            .find(|(_, v)| *v == Value::from(true))
            .expect("word must reach the head")
            .0;
        // Pushed at 1ns; three stage hops of 10ns each.
        assert_eq!(valid_at, SimTime::ZERO + SimDuration::ns(31));
    }

    #[test]
    fn preserves_order_and_values() {
        let mut bench = build(3, 5);
        for (i, w) in [10u64, 20, 30].iter().enumerate() {
            bench.push_at(i as u64 * 40, *w);
        }
        // Pop with generous spacing.
        bench.pop_at(200);
        bench.pop_at(240);
        bench.pop_at(280);
        // Record head data just before each pop via run segments.
        let mut seen = Vec::new();
        for t in [199u64, 239, 279] {
            bench
                .sim
                .run_until(SimTime::ZERO + SimDuration::ns(t))
                .unwrap();
            seen.push(bench.sim.word(bench.ports.head_data));
        }
        bench.sim.run_for(SimDuration::ns(100)).unwrap();
        assert_eq!(seen, vec![Some(10), Some(20), Some(30)]);
        let f = bench.sim.get(bench.fifo);
        assert_eq!(f.pushes(), 3);
        assert_eq!(f.pops(), 3);
        assert_eq!(f.occupancy(), 0);
        assert_eq!(f.overruns(), 0);
        assert_eq!(f.underruns(), 0);
    }

    #[test]
    fn fills_to_capacity_and_blocks() {
        let mut bench = build(3, 5);
        for i in 0..3 {
            bench.push_at(i * 40, 100 + i);
        }
        bench.sim.run_for(SimDuration::ns(200)).unwrap();
        let f = bench.sim.get(bench.fifo);
        assert_eq!(f.occupancy(), 3);
        assert_eq!(f.max_occupancy(), 3);
        assert_eq!(bench.sim.bit(bench.ports.full), Bit::One);
    }

    #[test]
    fn overrun_is_counted_not_corrupting() {
        let mut bench = build(1, 5);
        bench.push_at(0, 1);
        bench.push_at(10, 2); // head==tail stage still occupied
        bench.sim.run_for(SimDuration::ns(50)).unwrap();
        let f = bench.sim.get(bench.fifo);
        assert_eq!(f.overruns(), 1);
        assert_eq!(bench.sim.word(bench.ports.head_data), Some(1));
    }

    #[test]
    fn underrun_is_counted() {
        let mut bench = build(2, 5);
        bench.pop_at(5);
        bench.sim.run_for(SimDuration::ns(50)).unwrap();
        assert_eq!(bench.sim.get(bench.fifo).underruns(), 1);
    }

    #[test]
    fn backpressure_releases_in_order() {
        let mut bench = build(2, 5);
        bench.push_at(0, 1);
        bench.push_at(20, 2);
        // FIFO now full (2 words). Pop twice.
        bench.pop_at(100);
        bench.pop_at(150);
        let mut seen = Vec::new();
        for t in [99u64, 149] {
            bench
                .sim
                .run_until(SimTime::ZERO + SimDuration::ns(t))
                .unwrap();
            seen.push(bench.sim.word(bench.ports.head_data));
        }
        bench.sim.run_for(SimDuration::ns(100)).unwrap();
        assert_eq!(seen, vec![Some(1), Some(2)]);
        assert_eq!(bench.sim.get(bench.fifo).occupancy(), 0);
    }

    #[test]
    #[should_panic(expected = "depth must be non-zero")]
    fn zero_depth_rejected() {
        let mut b = SimBuilder::new();
        let ports = FifoPorts::declare(&mut b, "f");
        let _ = SelfTimedFifo::new(ports, 0, SimDuration::ns(1));
    }
}
