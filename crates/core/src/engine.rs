//! The compiled engine: a whole GALS system lowered to a flat
//! typed-event engine that runs lanes of configurations in lockstep.
//!
//! The paper's central observation is that under synchro-tokens every
//! SB's I/O sequence is a pure function of its local-cycle schedule —
//! and between token events that schedule is statically known. The
//! general event kernel still pays for that determinism the hard way:
//! every clock phase is a timer event that drives a `clk` signal, which
//! wakes a wrapper through a watcher list, which drives FIFO handshake
//! signals, which wake FIFO components, all with per-delta batch
//! bookkeeping and per-edge `Vec` allocation.
//!
//! A [`Group`] lowers built system descriptions once into flat
//! index-based arrays (`u32` channel/node/SB indices, SoA per-SB state,
//! reused per-edge scratch buffers) and replaces the generic
//! signal/watcher machinery with typed events: clock phase boundaries,
//! rising edges, FIFO pushes/pops/stage moves, token passes and clock
//! enables, all in one pending queue sorted by `(time, seq)`: the event
//! kernel's own [`PendingQueue`], a `Vec` with the next event at the
//! back. Dispatch pops it, and scheduling scans back from the end for
//! the insertion point, which for the few events a GALS system has in
//! flight is cheaper than a heap. FIFO occupancy is a `u64`
//! bitmask per channel (one bit per stage, which gates depth to ≤ 64),
//! and on channels whose stage delay exceeds the bundled-data setup
//! delay the internal move cascade never touches the queue at all: moves
//! are queued in a per-channel buffer and drained lazily just before
//! any push, pop or rising edge reads that FIFO. One iteration of the
//! loop advances a whole clock phase segment instead of popping a chain
//! of per-delta kernel events. A rising phase boundary usually carries
//! its edge in the same iteration: when clock jitter is off and nothing
//! else is due at or before that instant, the edge is certain to be the
//! next dispatch, so the engine runs it inline, still counting it as
//! one event and using up its `seq`. Only a tie with another event at
//! the same instant, a jittered rise or a restart from a clock enable
//! queues the edge as an `Edge` event. Both paths run the same handler
//! in the same order, so nothing observable, checkpoints included, can
//! tell them apart.
//!
//! # Shared control, per-lane data
//!
//! Configurations built from the *same* spec make exactly the same
//! control-flow decisions at exactly the same instants, so a group
//! holds one copy of the control state — the pending queue, FIFO
//! occupancy and move cascades, node FSMs and every counter — and
//! keeps only the data per lane: the `SyncLogic` instances, the words
//! of the determinism traces, the FIFO words and each in-flight push's
//! words. Even a trace row is mostly control: its cycle and which
//! inputs popped and which outputs sent are shared, so only its words
//! are per lane. Each lane's configuration hash is computed on first
//! read, never at lowering. The [`Plane`] type parameter picks how the
//! per-lane data is stored:
//!
//! * [`Scalar`] — exactly one lane, stored inline: one logic and one
//!   whole [`SbIoTrace`] per SB, FIFO words indexed by stage, a `u64`
//!   push payload. This is [`CompiledSystem`](crate::CompiledSystem).
//! * [`Lanes`] — boxed columns of any width, the lockstep groups of
//!   [`BatchedSystem`](crate::BatchedSystem), and one `LaneTraces` per
//!   SB: each row's shape once and every lane's words in one column.
//!   Recording hashes nothing; the first digest read folds every lane
//!   in one pass, and a lane's `SbIoTrace` is built only when read.
//!   The only way lane data can steer control flow is a logic's send
//!   decision on a rising edge, so a lanes group partitions its lanes
//!   by send pattern there and, on a disagreement, **splits**: control
//!   state is cloned per partition, the columns are dealt out and the
//!   trace columns selected. A split lane's control state *is* its
//!   scalar state, so it stays byte-identical.
//!
//! Both instantiations run the same lowering, dispatch loop, event
//! handlers, FIFO cascade and checkpoint dump; the plane only supplies
//! step 4 of the rising edge (tick the logic, record the trace).
//!
//! # The rising edge
//!
//! A rising edge runs the wrapper's one edge step, `WrapperCore`
//! (`edge.rs`), the same code the event kernel's wrapper runs. This
//! engine is its second port: it reads FIFO occupancy from the columns
//! (draining virtualized cascades first), draws wire jitter where the
//! event backend's `DelayModel` draws it, and queues pushes, pops,
//! token arrivals and clock enables as typed events.
//!
//! # Equivalence
//!
//! The engine is **observationally byte-identical** to the event-driven
//! [`System`](crate::System): `SbIoTrace` rows, cycle counts, edge
//! times, clock and FIFO statistics, node statistics and end times all
//! match exactly (`tests/compiled_equiv.rs`, and lane by lane
//! `tests/batched_equiv.rs`). The monotone `seq` tiebreak reproduces the
//! kernel's delta-batch ordering: an event scheduled by a handler always
//! fires after every already-queued event at the same instant, exactly
//! as a zero-delay drive lands in the next delta batch.
//!
//! # Support envelope
//!
//! Lowering requires [`WrapperMode::SynchroTokens`], no node
//! observability signals, every SB half-period at least the bundled
//! data setup delay (1 ps), and every channel FIFO depth between 1 and
//! 64 (the occupancy bitmask is a `u64`). Outside it (bypass mode
//! models metastability through the kernel RNG; sub-picosecond clocks
//! break the bundling constraint the FIFO events rely on),
//! [`SystemBuilder::build_backend`] silently falls back to the event
//! backend — callers never observe a behavioural difference, only a
//! speed difference.

use crate::checkpoint::{
    config_hash, Checkpoint, CheckpointBackend, CheckpointError, CompiledEvDump, CompiledFifoDump,
    CompiledSbDump, CompiledStateDump, DecodedCheckpoint, DecodedState,
};
use crate::drive::{drive, ChunkRule, Drive};
use crate::edge::{corrupt, EdgePort, WrapperCore};
use crate::faults::{
    restore_injector, FaultInjector, FaultPlan, JitterCounters, TokenPassAction, CLASS_CLK,
    CLASS_DATA, CLASS_TOKEN,
};
use crate::iotrace::{LaneTraces, SbIoTrace};
use crate::logic::{IdleLogic, SbIo, SyncLogic};
use crate::node::{NodeFsm, NodePhase, TokenAction};
use crate::spec::{ChannelId, RingId, SbId, SystemSpec};
use crate::system::{RunOutcome, SystemBuilder};
use crate::wrapper::{WrapperMode, BUNDLE_DELAY};
use st_sim::event::{Pending, PendingQueue};
use st_sim::prelude::*;
use std::any::Any;
use std::borrow::Cow;
use std::mem;
use std::ops::{Deref, DerefMut};
use std::sync::OnceLock;

/// One value per lane of a group, indexed by lane slot.
pub trait Column<T>: DerefMut<Target = [T]> {
    /// A column of `lanes` values, `f(slot)` each.
    fn from_fn(lanes: usize, f: impl FnMut(usize) -> T) -> Self;
}

/// The scalar column: exactly one lane, stored inline.
#[derive(Debug, Clone, Copy)]
pub struct One<T>(T);

impl<T> Deref for One<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        std::slice::from_ref(&self.0)
    }
}

impl<T> DerefMut for One<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        std::slice::from_mut(&mut self.0)
    }
}

impl<T> Column<T> for One<T> {
    #[inline]
    fn from_fn(_lanes: usize, mut f: impl FnMut(usize) -> T) -> Self {
        One(f(0))
    }
}

impl<T> Column<T> for Box<[T]> {
    fn from_fn(lanes: usize, f: impl FnMut(usize) -> T) -> Self {
        (0..lanes).map(f).collect()
    }
}

/// Every lane's determinism trace of one SB.
pub trait TraceStore {
    /// Empty traces of `lanes` lanes on an SB with `reads` inputs and
    /// `writes` outputs, recording at most `limit` rows (0 = unlimited).
    fn new(limit: usize, lanes: usize, reads: usize, writes: usize) -> Self;
    /// Lane `slot`'s trace.
    fn lane(&self, slot: usize) -> Cow<'_, SbIoTrace>;
    /// Lane `slot`'s trace digest, without building the trace.
    fn digest(&self, slot: usize) -> u64;
}

impl TraceStore for SbIoTrace {
    fn new(limit: usize, _lanes: usize, _reads: usize, _writes: usize) -> Self {
        SbIoTrace::with_limit(limit)
    }

    fn lane(&self, _slot: usize) -> Cow<'_, SbIoTrace> {
        Cow::Borrowed(self)
    }

    fn digest(&self, _slot: usize) -> u64 {
        SbIoTrace::digest(self)
    }
}

impl TraceStore for LaneTraces {
    fn new(limit: usize, lanes: usize, reads: usize, writes: usize) -> Self {
        LaneTraces::new(limit, lanes, reads, writes)
    }

    fn lane(&self, slot: usize) -> Cow<'_, SbIoTrace> {
        Cow::Owned(LaneTraces::lane(self, slot))
    }

    fn digest(&self, slot: usize) -> u64 {
        LaneTraces::digest(self, slot)
    }
}

/// How a group stores its per-lane data, and how a rising edge ticks
/// it (step 4 of the edge step).
pub trait Plane: Sized {
    /// Per-lane storage.
    type Col<T>: Column<T>;
    /// Per-SB storage of every lane's trace.
    type Traces: TraceStore;
    /// Per-edge scratch of the lane tick, reused across edges.
    type Scratch: Default;
    /// Ticks every lane's logic on SB `sbi`, records the trace row,
    /// and finishes the edge through `Group::post_tick` — once per
    /// group when the lanes disagree and `g` splits (the split-off
    /// groups go to `splits`).
    fn tick(g: &mut Group<Self>, sbi: usize, violated: bool, splits: &mut Vec<Group<Self>>);
}

/// The one-lane data plane of [`CompiledSystem`](crate::CompiledSystem).
#[derive(Debug)]
pub struct Scalar;

/// The any-width data plane of [`BatchedSystem`](crate::BatchedSystem).
#[derive(Debug)]
pub(crate) struct Lanes;

/// A typed event. `u32` indices keep the queue entry small beside the
/// timestamp. Each SB has at most one `Phase` and one `Edge` pending at
/// any time (see [`sched_edge`]); the checkpoint format stores those two
/// as per-SB slots.
#[derive(Debug, Clone)]
enum EvKind<W> {
    /// SB `sb`'s clock reaches a phase boundary (rising or falling check).
    Phase { sb: u32 },
    /// SB `sb`'s rising edge reaches its wrapper. Queued only when it
    /// cannot run inline with its rising `Phase`: another event is due
    /// at or before its instant, clock jitter moved it, or a clock
    /// enable restarted the clock.
    Edge { sb: u32 },
    /// Bundled-data words (one per lane) arrive at channel `ch`'s tail.
    Push { ch: u32, words: W },
    /// The consumer's acknowledge arrives at channel `ch`'s head.
    Pop { ch: u32 },
    /// The word in `stage` of channel `ch` attempts to advance.
    Move { ch: u32, stage: u32 },
    /// A token toggle arrives at node `node` of SB `sb`.
    Token { sb: u32, node: u32 },
    /// SB `sb`'s clock enable takes value `ena` (the AND over its nodes,
    /// captured at schedule time like a driven signal value).
    Clken { sb: u32, ena: bool },
}

/// A pending event. `seq` is globally monotone, so `(time, seq)` keys
/// are unique and order the queue.
type Ev<W> = Pending<EvKind<W>>;

// The scalar queue entry stays what a scalar-only engine would push:
// time, seq, and a tag + `u32` channel + inline `u64` word. Lane
// genericity must not fatten the scalar event (a lanes push carries a
// boxed column instead).
const _: () = assert!(std::mem::size_of::<Ev<One<u64>>>() <= 32);

/// Pending events in the kernel's queue type, sorted by `(time, seq)`.
type Queue<P> = PendingQueue<EvKind<<P as Plane>::Col<u64>>>;

/// Queues `kind` at `time` under the next `seq`. A fresh seq is larger
/// than every queued one, so the event dispatches after everything due
/// at or before `time` — equal-time events keep allocation order,
/// exactly as a zero-delay kernel drive lands in the next delta batch.
#[inline]
fn sched<W>(queue: &mut PendingQueue<EvKind<W>>, seq: &mut u64, time: SimTime, kind: EvKind<W>) {
    let s = *seq;
    *seq += 1;
    queue.insert(time, s, kind);
}

/// Queues SB `sb`'s rising edge at `time`. An SB has at most one rising
/// edge in flight: clock jitter beyond a clock period can leave the
/// previous one pending, and the new edge replaces it (`jittered` runs
/// only; without jitter an edge lands before the next phase boundary).
/// An unjittered rise with nothing else due by its instant never gets
/// here: `Group::on_phase` leaves that edge to run inline.
#[inline]
fn sched_edge<W>(
    queue: &mut PendingQueue<EvKind<W>>,
    seq: &mut u64,
    time: SimTime,
    sb: u32,
    jittered: bool,
) {
    if jittered {
        queue.retain(|ev| !matches!(ev.kind, EvKind::Edge { sb: s } if s == sb));
    }
    sched(queue, seq, time, EvKind::Edge { sb });
}

/// Where a node's token pass lands, pre-resolved to flat indices.
#[derive(Debug, Clone)]
struct Link {
    /// SB index the pass toggle lands in.
    dest_sb: u32,
    /// Node index within the destination SB.
    dest_node: u32,
    /// Node output delay + ring wire delay to the peer.
    pass_delay: SimDuration,
    /// Token jitter unit: `ring * 2 + direction`.
    unit: u32,
}

/// Flattened per-SB control state: the clock and the wrapper's edge
/// core (the per-lane logics and traces live in the group's columns).
#[derive(Clone)]
struct SbState {
    half: SimDuration,
    restart_delay: SimDuration,
    // Clock state (mirrors StoppableClock).
    clk_high: bool,
    parked: bool,
    clken: bool,
    edges: u64,
    clock_stops: u64,
    /// The edge step's state. A divergence split clones it mid-edge:
    /// every partition must still acknowledge the words its lanes
    /// consumed.
    core: WrapperCore,
    /// Per node of `core`: where its token passes land.
    links: Vec<Link>,
}

/// The compiled engine's side of one SB's edge step: FIFO occupancy
/// read from the columns (draining virtualized cascades first), wire
/// jitter drawn, handshakes and token passes queued as typed events.
struct Port<'a, P: Plane, F> {
    now: SimTime,
    sb: u32,
    links: &'a [Link],
    fifos: &'a mut [FifoState<P>],
    events: &'a mut u64,
    queue: &'a mut Queue<P>,
    seq: &'a mut u64,
    jitter: Option<&'a mut JitterCounters>,
    /// Output `k`'s push words, from its word as transmitted.
    payload: F,
}

impl<P: Plane, F> Port<'_, P, F> {
    /// The next jitter draw of a drive on `(class, unit)`: the same draw
    /// the event backend's `DelayModel` makes per delivered drive.
    fn draw(&mut self, class: u8, unit: u32) -> SimDuration {
        self.jitter
            .as_deref_mut()
            .map_or(SimDuration::ZERO, |j| j.next(class, unit))
    }

    /// Channel `ch`'s FIFO with every move due by now applied.
    fn fifo(&mut self, ch: ChannelId) -> &FifoState<P> {
        let f = &mut self.fifos[ch.0];
        f.drain(self.now, self.events);
        f
    }
}

impl<P: Plane, F: Fn(usize, u64) -> P::Col<u64>> EdgePort for Port<'_, P, F> {
    /// A popped view carries lane slot 0's word; other lanes' ticks
    /// patch their own in.
    fn head(&mut self, _i: usize, ch: ChannelId) -> Option<u64> {
        let f = self.fifo(ch);
        let head = (f.depth - 1) as usize;
        (f.occ >> head & 1 != 0).then(|| f.words[head][0])
    }

    fn tail_free(&mut self, _k: usize, ch: ChannelId) -> bool {
        self.fifo(ch).occ & 1 == 0
    }

    fn push(&mut self, k: usize, ch: ChannelId, word: u64, extra: SimDuration) {
        let at = self.now + BUNDLE_DELAY + extra + self.draw(CLASS_DATA, ch.0 as u32 * 2);
        let words = (self.payload)(k, word);
        let kind = EvKind::Push {
            ch: ch.0 as u32,
            words,
        };
        sched(self.queue, self.seq, at, kind);
    }

    fn ack(&mut self, _i: usize, ch: ChannelId, extra: SimDuration) {
        let at = self.now + BUNDLE_DELAY + extra + self.draw(CLASS_DATA, ch.0 as u32 * 2 + 1);
        sched(self.queue, self.seq, at, EvKind::Pop { ch: ch.0 as u32 });
    }

    fn pass_token(&mut self, node: usize, action: TokenPassAction) {
        let Link {
            dest_sb,
            dest_node,
            pass_delay,
            unit,
        } = self.links[node];
        let dest = || EvKind::Token {
            sb: dest_sb,
            node: dest_node,
        };
        let at = self.now + pass_delay;
        match action {
            // Toggle lost on the ring: no arrival, and (as on the event
            // backend, where no drive happens) no jitter draw.
            TokenPassAction::Drop => {}
            TokenPassAction::Delay(extra) => {
                let j = self.draw(CLASS_TOKEN, unit);
                sched(self.queue, self.seq, at + extra + j, dest());
            }
            TokenPassAction::Duplicate(extra) => {
                // Two toggles = two arrivals = two drive draws, exactly
                // like the event backend's pair of perturbed drives.
                let (j1, j2) = (self.draw(CLASS_TOKEN, unit), self.draw(CLASS_TOKEN, unit));
                sched(self.queue, self.seq, at + j1, dest());
                sched(self.queue, self.seq, at + extra + j2, dest());
            }
            TokenPassAction::Deliver => {
                let j = self.draw(CLASS_TOKEN, unit);
                sched(self.queue, self.seq, at + j, dest());
            }
        }
    }

    fn set_clken(&mut self, ena: bool) {
        let kind = EvKind::Clken { sb: self.sb, ena };
        sched(self.queue, self.seq, self.now, kind);
    }
}

/// Flattened self-timed FIFO state (mirrors `SelfTimedFifo`, minus the
/// published signals — the engine reads `stages` directly, which under
/// the support envelope is always what the published signals would say
/// at the instant a wrapper samples them).
struct FifoState<P: Plane> {
    /// Stage occupancy, bit `s` set when stage `s` holds a word.
    /// Bit 0 is the tail; bit `depth - 1` is the head. Lowering
    /// requires `depth <= 64` so the whole ladder fits one word.
    occ: u64,
    /// The words in each stage, one per lane (meaningful only where
    /// `occ` is set).
    words: Vec<P::Col<u64>>,
    depth: u32,
    stage_delay: SimDuration,
    /// Whether the stage-advance cascade runs through the private
    /// `pending` queue instead of global `Move` events. Exact when
    /// `stage_delay > BUNDLE_DELAY`: a move firing at `t` was then
    /// scheduled (seq-allocated) strictly before any same-instant
    /// push/pop (allocated `BUNDLE_DELAY` before `t`) or rising edge
    /// (allocated at `t`), so every reader of the stages observes all
    /// moves with fire time `<= t` already applied — which is exactly
    /// what draining before the reader does. Within one channel the
    /// cascade's relative order is its allocation order, preserved by
    /// stable insertion.
    virtualized: bool,
    /// Pending stage-advance attempts `(fire time, stage)`, sorted by
    /// time with stable (allocation) order among equal times.
    pending: Vec<(SimTime, u32)>,
    pushes: u64,
    pops: u64,
    overruns: u64,
    underruns: u64,
}

impl<P: Plane> FifoState<P> {
    /// Queues a stage-advance attempt on a virtualized channel.
    #[inline]
    fn queue_move(&mut self, at: SimTime, stage: u32) {
        // Stable insert: after every entry with time <= at (equal-time
        // entries were allocated earlier, so they stay in front). The
        // cascade almost always appends in time order, so check the
        // back before binary-searching.
        if self.pending.last().is_none_or(|&(t, _)| t <= at) {
            self.pending.push((at, stage));
        } else {
            let pos = self.pending.partition_point(|&(t, _)| t <= at);
            self.pending.insert(pos, (at, stage));
        }
    }

    /// Applies every pending stage advance with fire time `<= upto`,
    /// in fire order, counting each application like a dispatched
    /// event (the totals must match the non-virtualized engine). Most
    /// readers find nothing due, so only that check is inlined.
    #[inline]
    fn drain(&mut self, upto: SimTime, events: &mut u64) {
        if self.pending.first().is_some_and(|&(at, _)| at <= upto) {
            self.drain_due(upto, events);
        }
    }

    /// The cascade walk of [`drain`](Self::drain), once a move is due.
    #[inline(never)]
    fn drain_due(&mut self, upto: SimTime, events: &mut u64) {
        // Cursor walk: applied entries are cleared in one splice at the
        // end. Follow-ups queued during the walk land at `at + F`, i.e.
        // never before the cursor, so indexing stays stable.
        let mut i = 0;
        while let Some(&(at, stage)) = self.pending.get(i) {
            if at > upto {
                break;
            }
            i += 1;
            let [up, down] = self.advance(stage as usize);
            if let Some(s) = up {
                self.queue_move(at + self.stage_delay, s);
            }
            if let Some(s) = down {
                self.queue_move(at + self.stage_delay, s);
            }
        }
        if i > 0 {
            *events += i as u64;
            self.pending.drain(..i);
        }
    }

    /// One stage-advance attempt (mirrors the FIFO's move timer): moves
    /// the word in `stage` up one stage unless the attempt is stale or
    /// blocked, and returns the follow-up attempts, in scheduling order.
    #[inline]
    fn advance(&mut self, stage: usize) -> [Option<u32>; 2] {
        let bit = 1u64 << stage;
        if self.occ & bit == 0 || self.occ & (bit << 1) != 0 {
            // Stale (word already popped/advanced) or blocked (a later
            // pop/advance reschedules).
            return [None, None];
        }
        self.occ ^= bit | (bit << 1);
        let (below, above) = self.words.split_at_mut(stage + 1);
        above[0].copy_from_slice(&below[stage]);
        [
            (stage as u32 + 2 < self.depth).then_some(stage as u32 + 1),
            (stage > 0 && self.occ & (bit >> 1) != 0).then(|| stage as u32 - 1),
        ]
    }
}

/// A checkpoint's per-SB clock slot: a pending `Phase` or `Edge` event
/// packed as `(time << 64) | seq`, `u128::MAX` when none is pending.
const SLOT_EMPTY: u128 = u128::MAX;

fn slot_key(time: SimTime, seq: u64) -> u128 {
    (u128::from(time.as_fs()) << 64) | u128::from(seq)
}

/// Whether `builder`'s system can be lowered (see the module docs).
pub(crate) fn supports(builder: &SystemBuilder) -> bool {
    builder.mode == WrapperMode::SynchroTokens
        && !builder.observe_nodes
        && builder
            .spec
            .sbs
            .iter()
            .all(|s| !s.period.is_zero() && s.period / 2 >= BUNDLE_DELAY)
        && builder
            .spec
            .channels
            .iter()
            .all(|c| (1..=64).contains(&c.fifo_depth))
}

/// One lockstep group of lanes built from the same spec. All control
/// flow (and the `seq` stream) is shared, so it equals every member
/// lane's scalar run while the group holds.
pub struct Group<P: Plane> {
    spec: SystemSpec,
    trace_limit: usize,
    /// Global lane ids, in lane-slot order.
    ids: P::Col<usize>,
    /// Per lane: the seed of the builder it was lowered from, and its
    /// configuration hash once [`lane_hash`](Self::lane_hash) read it.
    keys: P::Col<LaneKey>,
    /// The fault plan of a faulted (hence singleton) group, which the
    /// configuration hash covers.
    plan: Option<Box<FaultPlan>>,
    sbs: Vec<SbState>,
    /// Per SB: each lane's synchronous logic.
    logics: Vec<P::Col<Box<dyn SyncLogic>>>,
    /// Per SB: every lane's determinism trace.
    traces: Vec<P::Traces>,
    fifos: Vec<FifoState<P>>,
    queue: Queue<P>,
    now: SimTime,
    seq: u64,
    events: u64,
    /// Wire jitter draws and the protocol fault injector, present only
    /// on a single-lane group whose builder's plan has them (faulted
    /// lanes never share control state: their jitter perturbs event
    /// timing immediately). The event backend makes the same draws in
    /// its `DelayModel`, and both engines' edge cores consult the
    /// injector.
    jitter: Option<JitterCounters>,
    injector: Option<FaultInjector>,
    scratch: P::Scratch,
}

/// A lane's part of its configuration hash (the spec and trace limit
/// are the group's), and the hash itself once computed. Lowering does
/// not hash: campaigns that never checkpoint never read it.
#[derive(Debug)]
struct LaneKey {
    seed: u64,
    hash: OnceLock<[u8; 16]>,
}

impl<P: Plane> std::fmt::Debug for Group<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Group")
            .field("lanes", &self.ids.len())
            .field("sbs", &self.sbs.len())
            .field("now", &self.now)
            .field("pending_events", &self.queue.len())
            .finish()
    }
}

/// One group driven through [`drive`]; divergence splits are kept with
/// the chunk end they split in.
pub(crate) struct GroupRun<'a, P: Plane> {
    pub(crate) group: &'a mut Group<P>,
    pub(crate) splits: Vec<(Group<P>, SimTime)>,
}

impl<P: Plane> Drive for GroupRun<'_, P> {
    fn now(&self) -> SimTime {
        self.group.now
    }

    fn min_cycles(&self) -> u64 {
        self.group.min_cycles()
    }

    fn run_chunk(&mut self, until: SimTime) -> Result<bool, SimError> {
        let mut fresh = Vec::new();
        let quiescent = self.group.dispatch(until, &mut fresh);
        self.splits.extend(fresh.into_iter().map(|g| (g, until)));
        Ok(quiescent)
    }

    fn stopped_sbs(&self) -> Vec<SbId> {
        self.group.stopped_sbs()
    }
}

impl<P: Plane> Group<P> {
    /// Lowers builders that share one spec and trace limit (checked by
    /// the caller, as is the support envelope) into a group whose lane
    /// slots follow `builders` and carry the global lane ids `ids`.
    pub(crate) fn lower(builders: &mut [SystemBuilder], ids: P::Col<usize>) -> Group<P> {
        let nl = builders.len();
        debug_assert_eq!(nl, ids.len());
        let spec = builders[0].spec.clone();
        let trace_limit = builders[0].trace_limit;
        let keys = Column::from_fn(nl, |s| LaneKey {
            seed: builders[s].seed,
            hash: OnceLock::new(),
        });
        let plan = match builders {
            [b] => b.faults.take().map(Box::new),
            _ => {
                debug_assert!(
                    builders.iter().all(|b| b.faults.is_none()),
                    "faulted lanes must be singleton groups"
                );
                None
            }
        };
        let jitter = plan
            .as_deref()
            .filter(|p| p.analog.is_active())
            .map(|p| JitterCounters::new(p.analog, p.seed));
        let injector = plan
            .as_deref()
            .and_then(|p| FaultInjector::for_plan(p, &spec));

        let fifos: Vec<FifoState<P>> = spec
            .channels
            .iter()
            .map(|ch| {
                let virtualized = ch.stage_delay > BUNDLE_DELAY;
                FifoState {
                    occ: 0,
                    words: (0..ch.fifo_depth)
                        .map(|_| Column::from_fn(nl, |_| 0))
                        .collect(),
                    depth: ch.fifo_depth as u32,
                    stage_delay: ch.stage_delay,
                    virtualized,
                    // Two attempts per stage: the cascade rarely holds more.
                    // Only virtualized channels ever queue one.
                    pending: if virtualized {
                        Vec::with_capacity(2 * ch.fifo_depth)
                    } else {
                        Vec::new()
                    },
                    pushes: 0,
                    pops: 0,
                    overruns: 0,
                    underruns: 0,
                }
            })
            .collect();

        let mut sbs = Vec::with_capacity(spec.sbs.len());
        let mut logics = Vec::with_capacity(spec.sbs.len());
        let mut traces = Vec::with_capacity(spec.sbs.len());
        for (i, sb_spec) in spec.sbs.iter().enumerate() {
            let sb = SbId(i);
            let half = sb_spec.period / 2;
            let core = WrapperCore::new(&spec, sb, false, trace_limit);
            let links = core
                .nodes
                .iter()
                .map(|n| {
                    let ring = &spec.rings[n.ring.0];
                    let (dest, pass_delay) = if n.to_holder {
                        (ring.holder, ring.delay_back)
                    } else {
                        (ring.peer, ring.delay_fwd)
                    };
                    Link {
                        dest_sb: dest.0 as u32,
                        dest_node: spec
                            .rings_of(dest)
                            .position(|(r, _)| r == n.ring)
                            .expect("peer SB must have a node on the shared ring")
                            as u32,
                        pass_delay,
                        unit: (n.ring.0 * 2 + usize::from(n.to_holder)) as u32,
                    }
                })
                .collect();
            logics.push(Column::from_fn(nl, |s| {
                builders[s]
                    .logics
                    .remove(&i)
                    .unwrap_or_else(|| Box::new(IdleLogic) as Box<dyn SyncLogic>)
            }));
            let (reads, writes) = (core.inputs.len(), core.outputs.len());
            traces.push(P::Traces::new(trace_limit, nl, reads, writes));
            sbs.push(SbState {
                half,
                restart_delay: half / 10,
                clk_high: false,
                parked: false,
                // The wrapper drives clken high from Start; nodes never
                // begin in `Stopped`, so the enable starts asserted.
                clken: true,
                edges: 0,
                clock_stops: 0,
                core,
                links,
            });
        }

        let n_sbs = sbs.len();
        // Room for each SB's two clock events and a token toggle, and a
        // push and a pop per channel.
        let queue = PendingQueue::with_capacity(3 * n_sbs + 2 * fifos.len());
        let mut g = Group {
            spec,
            trace_limit,
            ids,
            keys,
            plan,
            sbs,
            logics,
            traces,
            fifos,
            queue,
            now: SimTime::ZERO,
            seq: 0,
            events: 0,
            jitter,
            injector,
            scratch: P::Scratch::default(),
        };
        // First phase boundary of every clock, in SB (registration)
        // order — the same relative order the kernel's start timers get.
        for i in 0..n_sbs {
            let at = SimTime::ZERO + g.sbs[i].half;
            sched(&mut g.queue, &mut g.seq, at, EvKind::Phase { sb: i as u32 });
        }
        g
    }

    /// Runs until simulated time would exceed `deadline` or nothing is
    /// pending; `true` when nothing is. Mirrors `Simulator::run_until`,
    /// including processing events exactly at the deadline and
    /// advancing `now` to the deadline on quiescence. Divergence splits
    /// append fully-formed groups to `splits`; this group keeps the
    /// first partition and keeps running.
    fn dispatch(&mut self, deadline: SimTime, splits: &mut Vec<Group<P>>) -> bool {
        let mut quiescent = loop {
            let Some(ev) = self.queue.pop_due(deadline) else {
                break self.queue.is_empty();
            };
            self.now = ev.time;
            self.events += 1;
            match ev.kind {
                EvKind::Phase { sb } => {
                    if self.on_phase(sb as usize) {
                        // The rising edge `on_phase` left unqueued: it
                        // is the next dispatch, so it runs here, still
                        // counted as one event.
                        self.events += 1;
                        self.on_edge(sb as usize, splits);
                    }
                }
                EvKind::Edge { sb } => self.on_edge(sb as usize, splits),
                EvKind::Push { ch, words } => self.on_push(ch as usize, words),
                EvKind::Pop { ch } => self.on_pop(ch as usize),
                EvKind::Move { ch, stage } => self.on_move(ch as usize, stage as usize),
                EvKind::Token { sb, node } => self.on_token(sb as usize, node as usize),
                EvKind::Clken { sb, ena } => self.on_clken(sb as usize, ena),
            }
        };
        // Settle virtualized FIFO cascades: every move that would have
        // fired by the deadline is applied (and counted) now, so the
        // externally observable state and event totals match the
        // all-real-events engine at every chunk boundary. Moves only
        // schedule moves, so draining cannot wake anything global —
        // but moves still pending *beyond* the deadline would have
        // kept the reference engine's queue non-empty, so they veto
        // quiescence.
        for f in &mut self.fifos {
            f.drain(deadline, &mut self.events);
            quiescent &= f.pending.is_empty();
        }
        if self.now < deadline {
            self.now = deadline;
        }
        quiescent
    }

    // --- event handlers -------------------------------------------------

    /// Clock phase boundary (mirrors `StoppableClock`'s phase timer).
    /// `true` when a rising edge is due now and nothing else is due at
    /// or before now: the edge would be the next dispatch, so it is not
    /// queued (its `seq` is still used up) and the caller runs it.
    fn on_phase(&mut self, sbi: usize) -> bool {
        let now = self.now;
        let Self {
            sbs,
            queue,
            seq,
            jitter,
            ..
        } = self;
        let (sb, id) = (&mut sbs[sbi], sbi as u32);
        if sb.parked {
            // Stale phase while parked cannot happen (parking consumes
            // the only outstanding phase event), but mirror the clock's
            // defensive guard.
            return false;
        }
        if sb.clk_high {
            // Falling edges always complete.
            sb.clk_high = false;
            sched(queue, seq, now + sb.half, EvKind::Phase { sb: id });
            false
        } else if sb.clken {
            sb.clk_high = true;
            sb.edges += 1;
            // Analog faults jitter the rising drive only; the phase
            // timer (and so the falling edge) stays on the oscillator's
            // nominal grid, mirroring the event backend's `DelayModel`
            // perturbing the `clk <- One` drive and nothing else.
            let j = jitter
                .as_mut()
                .map_or(SimDuration::ZERO, |j| j.next(CLASS_CLK, id));
            // The rising edge reaches the wrapper "one delta later":
            // the fresh seq puts it after every event already queued at
            // this instant, exactly like the kernel's zero-delay drive.
            // So without jitter, and with nothing else due by now, it
            // is the next dispatch: it takes its seq but skips the queue.
            let inline = jitter.is_none() && queue.next_time().is_none_or(|t| t > now);
            if inline {
                *seq += 1;
            } else {
                sched_edge(queue, seq, now + j, id, jitter.is_some());
            }
            sched(queue, seq, now + sb.half, EvKind::Phase { sb: id });
            inline
        } else {
            // Synchronous stop: park with the clock low.
            sb.parked = true;
            sb.clock_stops += 1;
            false
        }
    }

    /// Clock-enable change (mirrors the `clken` signal: unchanged
    /// values are suppressed, a rise while parked restarts the clock).
    fn on_clken(&mut self, sbi: usize, ena: bool) {
        let now = self.now;
        let Self {
            sbs,
            queue,
            seq,
            jitter,
            ..
        } = self;
        let (sb, id) = (&mut sbs[sbi], sbi as u32);
        if ena == sb.clken {
            return;
        }
        sb.clken = ena;
        if sb.parked && ena {
            // Asynchronous restart: full high phase, no runt pulse.
            // The restart rise is a jittered drive like any other; the
            // phase boundary stays nominal.
            sb.parked = false;
            sb.clk_high = true;
            sb.edges += 1;
            let j = jitter
                .as_mut()
                .map_or(SimDuration::ZERO, |j| j.next(CLASS_CLK, id));
            let at = now + sb.restart_delay;
            sched_edge(queue, seq, at + j, id, jitter.is_some());
            sched(queue, seq, at + sb.half, EvKind::Phase { sb: id });
        }
    }

    /// Token toggle arrival (mirrors `SbWrapper::handle_token`; toggles
    /// always change value, so there is no suppression to replicate).
    fn on_token(&mut self, sbi: usize, node: usize) {
        let core = &mut self.sbs[sbi].core;
        if core.nodes[node].fsm.token_arrived() == TokenAction::RestartClock {
            let ena = core.clock_enabled();
            let kind = EvKind::Clken {
                sb: sbi as u32,
                ena,
            };
            sched(&mut self.queue, &mut self.seq, self.now, kind);
        }
    }

    /// Bundled-data push arrival (mirrors the FIFO's `put_req` wake; the
    /// event carries the words captured at transmit time, which under
    /// the half-period ≥ bundle-delay envelope equal what `put_data`
    /// holds when the request lands).
    fn on_push(&mut self, chi: usize, words: P::Col<u64>) {
        let now = self.now;
        let f = &mut self.fifos[chi];
        if f.virtualized {
            f.drain(now, &mut self.events);
        }
        if f.occ & 1 != 0 {
            f.overruns += 1;
            return;
        }
        f.occ |= 1;
        f.words[0] = words;
        f.pushes += 1;
        if f.depth > 1 {
            self.follow_up(chi, 0);
        }
    }

    /// Acknowledge arrival (mirrors the FIFO's `get_ack` wake).
    fn on_pop(&mut self, chi: usize) {
        let now = self.now;
        let f = &mut self.fifos[chi];
        if f.virtualized {
            f.drain(now, &mut self.events);
        }
        let head = (f.depth - 1) as usize;
        let head_bit = 1u64 << head;
        if f.occ & head_bit == 0 {
            f.underruns += 1;
            return;
        }
        f.occ ^= head_bit;
        f.pops += 1;
        if head > 0 && f.occ & (head_bit >> 1) != 0 {
            // The word behind the head can now advance.
            self.follow_up(chi, head as u32 - 1);
        }
    }

    /// Stage-advance attempt on a non-virtualized channel.
    fn on_move(&mut self, chi: usize, stage: usize) {
        for next in self.fifos[chi].advance(stage).into_iter().flatten() {
            self.follow_up(chi, next);
        }
    }

    /// Schedules a stage-advance attempt one stage delay from now:
    /// privately on a virtualized channel, as a `Move` event otherwise.
    #[inline(always)]
    fn follow_up(&mut self, chi: usize, stage: u32) {
        let f = &mut self.fifos[chi];
        let at = self.now + f.stage_delay;
        if f.virtualized {
            f.queue_move(at, stage);
        } else {
            let kind = EvKind::Move {
                ch: chi as u32,
                stage,
            };
            sched(&mut self.queue, &mut self.seq, at, kind);
        }
    }

    /// Rising edge at SB `sbi`'s wrapper: steps 0–3 of the shared edge
    /// core, then the plane's step 4, which finishes the edge through
    /// [`post_tick`](Self::post_tick) — once per group when the lanes
    /// split.
    fn on_edge(&mut self, sbi: usize, splits: &mut Vec<Group<P>>) {
        let no_push =
            |_: usize, _: u64| -> P::Col<u64> { unreachable!("steps 0-3 never transmit") };
        let (core, _, mut port) = self.port(sbi, no_push);
        let violated = core.pre_tick(port.now, &mut port);
        P::tick(self, sbi, violated, splits);
    }

    /// Steps 5–8 of SB `sbi`'s edge, under the send pattern the
    /// group's output slots hold (uniform across its lanes).
    /// `payload(k, w)` builds output `k`'s push words, `w` being the
    /// slots' word as transmitted.
    fn post_tick(
        &mut self,
        sbi: usize,
        violated: bool,
        payload: impl Fn(usize, u64) -> P::Col<u64>,
    ) {
        let (core, injector, mut port) = self.port(sbi, payload);
        core.post_tick(violated, &mut port, injector);
    }

    /// SB `sbi`'s edge core, the group's fault injector, and the port
    /// the core runs against.
    fn port<F>(
        &mut self,
        sbi: usize,
        payload: F,
    ) -> (&mut WrapperCore, Option<&mut FaultInjector>, Port<'_, P, F>) {
        let sb = &mut self.sbs[sbi];
        let port = Port {
            now: self.now,
            sb: sbi as u32,
            links: &sb.links,
            fifos: &mut self.fifos,
            events: &mut self.events,
            queue: &mut self.queue,
            seq: &mut self.seq,
            jitter: self.jitter.as_mut(),
            payload,
        };
        (&mut sb.core, self.injector.as_mut(), port)
    }

    // --- accessors ------------------------------------------------------

    fn min_cycles(&self) -> u64 {
        self.sbs.iter().map(|s| s.core.cycle).min().unwrap_or(0)
    }

    /// The specification this system was built from.
    pub fn spec(&self) -> &SystemSpec {
        &self.spec
    }

    /// Local cycles elapsed in `sb`.
    pub fn cycles(&self, sb: SbId) -> u64 {
        self.sbs[sb.0].core.cycle
    }

    /// The phase of `sb`'s node on `ring`, if it has one.
    pub fn node_phase(&self, sb: SbId, ring: RingId) -> Option<NodePhase> {
        self.node(sb, ring).map(NodeFsm::phase)
    }

    /// The node FSM itself (token statistics etc.).
    pub fn node(&self, sb: SbId, ring: RingId) -> Option<&NodeFsm> {
        self.sbs[sb.0].core.node(ring)
    }

    /// Mutable node access (debug hooks, SEU injection).
    pub fn node_mut(&mut self, sb: SbId, ring: RingId) -> Option<&mut NodeFsm> {
        self.sbs[sb.0].core.node_mut(ring)
    }

    /// SBs whose clocks are currently parked.
    pub fn stopped_sbs(&self) -> Vec<SbId> {
        self.sbs
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parked)
            .map(|(i, _)| SbId(i))
            .collect()
    }

    /// Clock statistics: (rising edges, synchronous stops) of `sb`.
    pub fn clock_stats(&self, sb: SbId) -> (u64, u64) {
        let s = &self.sbs[sb.0];
        (s.edges, s.clock_stops)
    }

    /// FIFO statistics for `channel`: (pushes, pops, overruns, underruns).
    pub fn fifo_stats(&self, channel: ChannelId) -> (u64, u64, u64, u64) {
        let f = &self.fifos[channel.0];
        (f.pushes, f.pops, f.overruns, f.underruns)
    }

    /// Words the logic of `sb` attempted to send on blocked channels.
    pub fn dropped_words(&self, sb: SbId) -> u64 {
        self.sbs[sb.0].core.dropped_words
    }

    /// Bypass-mode metastable samples: always zero (the compiled engine
    /// only runs synchro-tokens mode).
    pub fn metastable_samples(&self, _sb: SbId) -> u64 {
        0
    }

    /// Setup-time violations taken by `sb`.
    pub fn timing_violations(&self, sb: SbId) -> u64 {
        self.sbs[sb.0].core.timing_violations
    }

    /// Wall-clock times of `sb`'s rising edges, indexed by local cycle
    /// (capped at the trace limit).
    pub fn edge_times(&self, sb: SbId) -> &[SimTime] {
        &self.sbs[sb.0].core.edge_times
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Typed events processed so far (the engine's analogue of the
    /// kernel's fired-event counter; each event wakes one handler). A
    /// group dispatches each shared event once, on behalf of every
    /// member lane's scalar run. A rising edge run inline with its
    /// clock phase counts as one event, like a queued one.
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// The trace limit the group's lanes were built with.
    pub(crate) fn trace_limit(&self) -> usize {
        self.trace_limit
    }

    /// Lane `slot`'s I/O trace of `sb`.
    pub(crate) fn lane_trace(&self, slot: usize, sb: SbId) -> Cow<'_, SbIoTrace> {
        self.traces[sb.0].lane(slot)
    }

    /// The digest of lane `slot`'s I/O trace of `sb`, without building
    /// the trace.
    pub(crate) fn lane_digest(&self, slot: usize, sb: SbId) -> u64 {
        self.traces[sb.0].digest(slot)
    }

    /// Lane `slot`'s logic on `sb`, downcast to its concrete type.
    pub(crate) fn lane_logic<T: SyncLogic>(&self, slot: usize, sb: SbId) -> &T {
        let logic: &dyn Any = self.logics[sb.0][slot].as_ref();
        logic.downcast_ref::<T>().expect("logic type mismatch")
    }

    /// Lane `slot`'s configuration hash, computed on first read.
    pub(crate) fn lane_hash(&self, slot: usize) -> [u8; 16] {
        let key = &self.keys[slot];
        *key.hash.get_or_init(|| {
            config_hash(&self.spec, key.seed, self.trace_limit, self.plan.as_deref())
        })
    }

    /// Copies lane `slot`'s complete state into a compiled-backend
    /// [`DecodedCheckpoint`]: the group's control state *is* each
    /// member lane's scalar state, and lane `slot`'s columns carry the
    /// rest, so every lane's snapshot equals the one its scalar run
    /// would take at the same point. Its [`encode`] is the lane's
    /// canonical checkpoint.
    ///
    /// [`encode`]: DecodedCheckpoint::encode
    pub(crate) fn lane_snapshot(&self, slot: usize) -> Result<DecodedCheckpoint, CheckpointError> {
        let mut sbs = Vec::with_capacity(self.sbs.len());
        for (i, sb) in self.sbs.iter().enumerate() {
            let logic = self.logics[i][slot]
                .save_state()
                .ok_or(CheckpointError::Unsupported(
                    "attached logic does not implement save_state",
                ))?;
            sbs.push(CompiledSbDump {
                clk_high: sb.clk_high,
                parked: sb.parked,
                clken: sb.clken,
                edges: sb.edges,
                clock_stops: sb.clock_stops,
                cycle: sb.core.cycle,
                dropped_words: sb.core.dropped_words,
                timing_violations: sb.core.timing_violations,
                last_edge: sb.core.last_edge,
                edge_times: sb.core.edge_times.clone(),
                trace: self.traces[i].lane(slot).into_owned(),
                nodes: sb.core.nodes.iter().map(|n| n.fsm.snapshot()).collect(),
                logic,
            });
        }
        // The format keeps clock events as per-SB slots and the rest as
        // a `(time, seq)`-sorted list: the queue read earliest first.
        let mut clk = vec![(SLOT_EMPTY, SLOT_EMPTY); self.sbs.len()];
        let mut heap = Vec::with_capacity(self.queue.len());
        for ev in self.queue.iter() {
            let (kind, a, b) = match &ev.kind {
                EvKind::Phase { sb } => {
                    clk[*sb as usize].0 = slot_key(ev.time, ev.seq);
                    continue;
                }
                EvKind::Edge { sb } => {
                    clk[*sb as usize].1 = slot_key(ev.time, ev.seq);
                    continue;
                }
                EvKind::Push { ch, words } => (0, *ch, words[slot]),
                EvKind::Pop { ch } => (1, *ch, 0),
                EvKind::Move { ch, stage } => (2, *ch, u64::from(*stage)),
                EvKind::Token { sb, node } => (3, *sb, u64::from(*node)),
                EvKind::Clken { sb, ena } => (4, *sb, u64::from(*ena)),
            };
            heap.push(CompiledEvDump {
                time: ev.time,
                seq: ev.seq,
                kind,
                a,
                b,
            });
        }
        let dump = CompiledStateDump {
            now: self.now,
            seq: self.seq,
            events: self.events,
            clk,
            heap,
            sbs,
            fifos: self
                .fifos
                .iter()
                .map(|f| CompiledFifoDump {
                    occ: f.occ,
                    words: f.words.iter().map(|w| w[slot]).collect(),
                    pending: f.pending.clone(),
                    pushes: f.pushes,
                    pops: f.pops,
                    overruns: f.overruns,
                    underruns: f.underruns,
                })
                .collect(),
            jitter: self.jitter.as_ref().map(JitterCounters::snapshot_occ),
            injector: self.injector.as_ref().map(FaultInjector::snapshot_counters),
        };
        Ok(DecodedCheckpoint::new(
            self.lane_hash(slot),
            self.min_cycles(),
            self.now,
            DecodedState::Compiled(dump),
        ))
    }
}

impl Plane for Scalar {
    type Col<T> = One<T>;
    // A whole trace per SB: callers compare scalar traces row by row.
    type Traces = SbIoTrace;
    type Scratch = ();

    #[inline]
    fn tick(g: &mut Group<Scalar>, sbi: usize, violated: bool, _splits: &mut Vec<Group<Scalar>>) {
        let core = &mut g.sbs[sbi].core;
        g.logics[sbi]
            .0
            .tick(core.cycle, &mut SbIo::new(&core.views, &mut core.slots));
        core.record(&mut g.traces[sbi], violated);
        g.post_tick(sbi, violated, |_, w| One(w));
    }
}

impl Plane for Lanes {
    type Col<T> = Box<[T]>;
    type Traces = LaneTraces;
    /// Lane-major output words of the edge: lane `slot`'s row is
    /// `out[slot * n_out..][..n_out]`.
    type Scratch = Vec<Option<u64>>;

    /// Ticks every lane against its own data columns (views and slots
    /// are built once per edge; per lane only the popped input words
    /// and the output words change), then compares the lanes' send
    /// patterns: which outputs each lane wrote. `can_send` is shared
    /// control (a logic sets only `word`, through `SbIo::send`), so two
    /// lanes agree iff their output rows hold words in the same places.
    /// Identical patterns keep the lockstep; otherwise the group splits
    /// by pattern first. Either way each group then records the edge's
    /// trace row under its own (uniform) pattern and finishes the edge.
    fn tick(g: &mut Group<Lanes>, sbi: usize, violated: bool, splits: &mut Vec<Group<Lanes>>) {
        let nl = g.ids.len();
        let mut out = mem::take(&mut g.scratch);
        let (core, logics) = (&mut g.sbs[sbi].core, &mut g.logics[sbi]);
        let n_out = core.outputs.len();
        out.clear();
        out.resize(nl * n_out, None);
        for slot in 0..nl {
            // A popped input's view carries a word on every lane.
            for (&(ch, _), view) in core.inputs.iter().zip(&mut core.views) {
                if view.data.is_some() {
                    let f = &g.fifos[ch.0];
                    view.data = Some(f.words[(f.depth - 1) as usize][slot]);
                }
            }
            for o in &mut core.slots {
                o.word = None;
            }
            logics[slot].tick(core.cycle, &mut SbIo::new(&core.views, &mut core.slots));
            for (k, o) in core.slots.iter().enumerate() {
                out[slot * n_out + k] = o.word;
            }
        }
        let row = |slot: usize| &out[slot * n_out..][..n_out];
        let agree = |a: usize, b: usize| {
            row(a)
                .iter()
                .zip(row(b))
                .all(|(x, y)| x.is_some() == y.is_some())
        };
        if (1..nl).all(|slot| agree(0, slot)) {
            // The slots still hold the last lane's, i.e. every lane's,
            // pattern.
            g.record_row(sbi, violated, &out, 0..nl);
            g.post_tick(sbi, violated, |k, _| {
                lane_words(&out, n_out, 0..nl, k, violated)
            });
        } else {
            // Split: partition lane slots by pattern, in first-appearance
            // order (deterministic in lane order).
            let mut parts: Vec<Vec<usize>> = Vec::new();
            for slot in 0..nl {
                match parts.iter_mut().find(|p| agree(p[0], slot)) {
                    Some(p) => p.push(slot),
                    None => parts.push(vec![slot]),
                }
            }
            let mut children = g.partition_into(&parts);
            let groups = std::iter::once(&mut *g).chain(children.iter_mut());
            for (group, part) in groups.zip(&parts) {
                let slots = &mut group.sbs[sbi].core.slots;
                for (o, w) in slots.iter_mut().zip(row(part[0])) {
                    o.word = w.map(|_| 0);
                }
                let part = part.iter().copied();
                group.record_row(sbi, violated, &out, part.clone());
                group.post_tick(sbi, violated, |k, _| {
                    lane_words(&out, n_out, part.clone(), k, violated)
                });
            }
            splits.extend(children);
        }
        g.scratch = out;
    }
}

/// Output `k`'s words, as transmitted, of the lane slots `part` in the
/// lane-major edge outputs `out`.
fn lane_words(
    out: &[Option<u64>],
    n_out: usize,
    part: impl Iterator<Item = usize>,
    k: usize,
    violated: bool,
) -> Box<[u64]> {
    part.map(|slot| corrupt(out[slot * n_out + k].expect("pattern bit set"), violated))
        .collect()
}

impl Group<Lanes> {
    /// Global lane ids, in lane-slot order.
    pub(crate) fn ids(&self) -> &[usize] {
        &self.ids
    }

    /// Records SB `sbi`'s trace row of this edge under the send pattern
    /// the group's slots hold: popped inputs present the head words of
    /// their FIFOs, and output `k`'s transmitted words come from the
    /// lane-major edge outputs `out` of the original lane slots `part`.
    fn record_row(
        &mut self,
        sbi: usize,
        violated: bool,
        out: &[Option<u64>],
        part: impl Iterator<Item = usize> + Clone,
    ) {
        let (core, fifos) = (&self.sbs[sbi].core, &self.fifos);
        let n_out = core.outputs.len();
        let reads = core.inputs.iter().zip(&core.views).map(|(&(ch, _), view)| {
            view.data.map(|_| {
                let f = &fifos[ch.0];
                f.words[(f.depth - 1) as usize].iter().copied()
            })
        });
        let writes = core.slots.iter().enumerate().map(|(k, o)| {
            let part = part.clone();
            (o.can_send && o.word.is_some()).then(move || {
                part.map(move |slot| {
                    corrupt(out[slot * n_out + k].expect("pattern bit set"), violated)
                })
            })
        });
        self.traces[sbi].record(core.cycle, reads, writes);
    }

    /// Splits this group's lanes along `parts` (disjoint slot sets in
    /// lane order, covering every slot). The group keeps `parts[0]`;
    /// the rest come back as fully independent groups with cloned
    /// control state and their lanes' columns.
    pub(crate) fn partition_into(&mut self, parts: &[Vec<usize>]) -> Vec<Group<Lanes>> {
        debug_assert!(
            self.plan.is_none(),
            "faulted groups are singletons and never split"
        );
        /// Moves a column's lanes out, one column per part.
        fn deal<T>(col: Box<[T]>, parts: &[Vec<usize>]) -> std::vec::IntoIter<Box<[T]>> {
            let mut pool: Vec<Option<T>> = col.into_vec().into_iter().map(Some).collect();
            let dealt: Vec<Box<[T]>> = parts
                .iter()
                .map(|p| {
                    p.iter()
                        .map(|&s| pool[s].take().expect("slot dealt once"))
                        .collect()
                })
                .collect();
            dealt.into_iter()
        }
        let mut ids = deal(mem::take(&mut self.ids), parts);
        let mut keys = deal(mem::take(&mut self.keys), parts);
        let mut logics: Vec<_> = mem::take(&mut self.logics)
            .into_iter()
            .map(|c| deal(c, parts))
            .collect();
        let queue = mem::take(&mut self.queue);

        let mut groups: Vec<Group<Lanes>> = parts
            .iter()
            .map(|part| {
                let gather = |col: &[u64]| -> Box<[u64]> { part.iter().map(|&s| col[s]).collect() };
                Group {
                    spec: self.spec.clone(),
                    trace_limit: self.trace_limit,
                    ids: ids.next().expect("one column per part"),
                    keys: keys.next().expect("one column per part"),
                    plan: None,
                    sbs: self.sbs.clone(),
                    logics: logics
                        .iter_mut()
                        .map(|c| c.next().expect("one column per part"))
                        .collect(),
                    traces: self.traces.iter().map(|t| t.select(part)).collect(),
                    fifos: self
                        .fifos
                        .iter()
                        .map(|f| FifoState {
                            occ: f.occ,
                            words: f.words.iter().map(|w| gather(w)).collect(),
                            depth: f.depth,
                            stage_delay: f.stage_delay,
                            virtualized: f.virtualized,
                            pending: f.pending.clone(),
                            pushes: f.pushes,
                            pops: f.pops,
                            overruns: f.overruns,
                            underruns: f.underruns,
                        })
                        .collect(),
                    queue: queue.map(|kind| match kind {
                        EvKind::Push { ch, words } => EvKind::Push {
                            ch: *ch,
                            words: gather(words),
                        },
                        other => other.clone(),
                    }),
                    now: self.now,
                    seq: self.seq,
                    events: self.events,
                    jitter: None,
                    injector: None,
                    scratch: Vec::new(),
                }
            })
            .collect();
        *self = groups.remove(0);
        groups
    }
}

impl Group<Scalar> {
    /// Lowers the builder, or hands it back untouched when the system
    /// is outside the support envelope. Runs once per build, so the
    /// by-value `Err` hand-back costs nothing measurable.
    #[allow(clippy::result_large_err)]
    pub(crate) fn lower_scalar(mut builder: SystemBuilder) -> Result<Self, SystemBuilder> {
        if !supports(&builder) {
            return Err(builder);
        }
        Ok(Group::lower(std::slice::from_mut(&mut builder), One(0)))
    }

    /// Runs until simulated time would exceed `deadline` or the queue
    /// drains. Mirrors `Simulator::run_until`, including processing
    /// events exactly at the deadline and advancing `now` to the
    /// deadline on quiescence.
    ///
    /// # Errors
    ///
    /// Never fails; the `Result` matches the event backend's signature.
    pub fn run_until(&mut self, deadline: SimTime) -> Result<RunSummary, SimError> {
        let fired_before = self.events;
        let quiescent = self.dispatch(deadline, &mut Vec::new());
        let fired = self.events - fired_before;
        Ok(RunSummary {
            events_fired: fired,
            wakes: fired,
            end_time: self.now,
            quiescent,
        })
    }

    /// Runs for a further `span` of simulated time.
    ///
    /// # Errors
    ///
    /// Never fails; the `Result` matches the event backend's signature.
    pub fn run_for(&mut self, span: SimDuration) -> Result<RunSummary, SimError> {
        let deadline = self.now + span;
        self.run_until(deadline)
    }

    /// Runs until every SB has executed at least `cycles` local cycles,
    /// deadlock is detected, or `max_time` of simulated time elapses —
    /// the same chunk loop as
    /// [`System::run_until_cycles`](crate::System::run_until_cycles),
    /// so intermediate end times match exactly.
    ///
    /// # Errors
    ///
    /// Never fails; the `Result` matches the event backend's signature.
    pub fn run_until_cycles(
        &mut self,
        cycles: u64,
        max_time: SimDuration,
    ) -> Result<RunOutcome, SimError> {
        let rule = ChunkRule::new(&self.spec, cycles, None);
        self.drive_to(rule, max_time)
    }

    /// A verdict run, as
    /// [`System::run_to_verdict`](crate::System::run_to_verdict): the
    /// outcome and traces of [`run_until_cycles`](Self::run_until_cycles),
    /// with an unspecified end state.
    ///
    /// # Errors
    ///
    /// Never fails; the `Result` matches the event backend's signature.
    pub fn run_to_verdict(
        &mut self,
        cycles: u64,
        max_time: SimDuration,
    ) -> Result<RunOutcome, SimError> {
        let rule = ChunkRule::new(&self.spec, cycles, Some(self.trace_limit));
        self.drive_to(rule, max_time)
    }

    fn drive_to(&mut self, rule: ChunkRule, max_time: SimDuration) -> Result<RunOutcome, SimError> {
        let deadline = self.now + max_time;
        let mut run = GroupRun {
            group: self,
            splits: Vec::new(),
        };
        drive(&mut run, rule, deadline, None)
    }

    /// The I/O trace of `sb`.
    pub fn io_trace(&self, sb: SbId) -> &SbIoTrace {
        &self.traces[sb.0]
    }

    /// The final state of `sb`'s logic, downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the logic attached to `sb` is not a `T`.
    pub fn logic<T: SyncLogic>(&self, sb: SbId) -> &T {
        self.lane_logic(0, sb)
    }

    /// Mutable access to `sb`'s logic.
    ///
    /// # Panics
    ///
    /// Panics if the logic attached to `sb` is not a `T`.
    pub fn logic_mut<T: SyncLogic>(&mut self, sb: SbId) -> &mut T {
        let logic: &mut dyn Any = self.logics[sb.0][0].as_mut();
        logic.downcast_mut::<T>().expect("logic type mismatch")
    }

    /// The configuration content key this system (and its checkpoints)
    /// are bound to.
    pub fn spec_hash(&self) -> [u8; 16] {
        self.lane_hash(0)
    }

    /// Freezes the complete engine state into a canonical
    /// [`Checkpoint`]. The compiled engine is always inside the
    /// deterministic envelope; the only remaining requirement is that
    /// every attached logic implements
    /// [`SyncLogic::save_state`](crate::logic::SyncLogic::save_state).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Unsupported`] when a logic cannot save state.
    pub fn checkpoint(&self) -> Result<Checkpoint, CheckpointError> {
        self.snapshot().map(|s| s.encode())
    }

    /// The engine state [`checkpoint`](Self::checkpoint) would encode,
    /// held decoded: equal to `checkpoint()?.decode()`, without the
    /// encode and decode. An in-process fork resumes from it directly.
    ///
    /// # Errors
    ///
    /// As [`checkpoint`](Self::checkpoint).
    pub fn snapshot(&self) -> Result<DecodedCheckpoint, CheckpointError> {
        self.lane_snapshot(0)
    }

    /// Reconstructs a running compiled system from `checkpoint`, using a
    /// builder configured **identically** to the one that produced it.
    /// Continuation from the restored state is byte-identical to a
    /// straight run.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::BackendMismatch`] for event-backend
    /// checkpoints, [`CheckpointError::Unsupported`] outside the
    /// compiled envelope, [`CheckpointError::SpecMismatch`] when the
    /// builder differs from the originating configuration,
    /// [`CheckpointError::Corrupt`] for malformed payload bytes.
    pub fn resume(
        builder: SystemBuilder,
        checkpoint: &Checkpoint,
    ) -> Result<Self, CheckpointError> {
        if checkpoint.backend() != CheckpointBackend::Compiled {
            return Err(CheckpointError::BackendMismatch);
        }
        Self::resume_decoded(builder, &checkpoint.decode()?)
    }

    /// [`resume`](Self::resume) from a pre-decoded checkpoint (see
    /// [`Checkpoint::decode`]): restoring is a plain copy of the decoded
    /// state, so forking many runs from one blob decodes it once.
    ///
    /// # Errors
    ///
    /// As [`resume`](Self::resume), minus the payload decode.
    pub fn resume_decoded(
        builder: SystemBuilder,
        checkpoint: &DecodedCheckpoint,
    ) -> Result<Self, CheckpointError> {
        let hash = config_hash(
            &builder.spec,
            builder.seed,
            builder.trace_limit,
            builder.faults.as_ref(),
        );
        if hash != checkpoint.spec_hash() {
            return Err(CheckpointError::SpecMismatch);
        }
        let mut sys = Self::lower_scalar(builder).map_err(|_| {
            CheckpointError::Unsupported("system is outside the compiled support envelope")
        })?;
        // The builder's hash is the lowered engine's: restoring must
        // not compute it again.
        sys.keys.0.hash = OnceLock::from(hash);
        sys.restore_decoded(checkpoint)?;
        Ok(sys)
    }

    /// Restores this engine in place to the checkpointed state, reusing
    /// every existing allocation (trace rows, edge-time ring, FIFO
    /// buffers, pending queue). Equivalent to
    /// [`resume_decoded`](Self::resume_decoded) with this engine's own
    /// configuration, minus the lowering: a prefix-fork campaign keeps
    /// one engine per worker and rewinds it per variant instead of
    /// building a fresh one.
    ///
    /// The checkpoint's configuration hash must match this engine's
    /// [`spec_hash`](Self::spec_hash) — same spec, seed, trace limit and
    /// fault plan — so a stale engine cached across campaigns fails
    /// closed with [`CheckpointError::SpecMismatch`] rather than
    /// resuming the wrong workload. On any error the engine state is
    /// unspecified (possibly partially restored); restore again or
    /// discard it.
    ///
    /// # Errors
    ///
    /// - [`CheckpointError::BackendMismatch`] for an event-backend
    ///   checkpoint.
    /// - [`CheckpointError::SpecMismatch`] when the configuration hash
    ///   or any structural shape disagrees, or when a pending event,
    ///   FIFO move or occupancy bit names an SB, node, channel or stage
    ///   this engine does not have.
    pub fn restore_decoded(
        &mut self,
        checkpoint: &DecodedCheckpoint,
    ) -> Result<(), CheckpointError> {
        let DecodedState::Compiled(dump) = &checkpoint.state else {
            return Err(CheckpointError::BackendMismatch);
        };
        if self.lane_hash(0) != checkpoint.spec_hash()
            || dump.sbs.len() != self.sbs.len()
            || dump.fifos.len() != self.fifos.len()
            || dump.clk.len() != self.sbs.len()
        {
            return Err(CheckpointError::SpecMismatch);
        }
        for (i, (sb, d)) in self.sbs.iter_mut().zip(&dump.sbs).enumerate() {
            let core = &mut sb.core;
            if d.nodes.len() != core.nodes.len() || !self.logics[i].0.restore_state(&d.logic) {
                return Err(CheckpointError::SpecMismatch);
            }
            sb.clk_high = d.clk_high;
            sb.parked = d.parked;
            sb.clken = d.clken;
            sb.edges = d.edges;
            sb.clock_stops = d.clock_stops;
            core.cycle = d.cycle;
            core.dropped_words = d.dropped_words;
            core.timing_violations = d.timing_violations;
            core.last_edge = d.last_edge;
            core.edge_times.clone_from(&d.edge_times);
            self.traces[i].clone_from(&d.trace);
            for (n, snap) in core.nodes.iter_mut().zip(&d.nodes) {
                n.fsm.restore(snap);
            }
        }
        for (f, d) in self.fifos.iter_mut().zip(&dump.fifos) {
            // Stage-advance attempts name a stage with one above it.
            if d.words.len() != f.words.len()
                || d.pending.iter().any(|&(_, stage)| stage >= f.depth - 1)
                || (f.depth < 64 && d.occ >> f.depth != 0)
            {
                return Err(CheckpointError::SpecMismatch);
            }
            f.occ = d.occ;
            for (w, &v) in f.words.iter_mut().zip(&d.words) {
                *w = One(v);
            }
            f.pending.clone_from(&d.pending);
            f.pushes = d.pushes;
            f.pops = d.pops;
            f.overruns = d.overruns;
            f.underruns = d.underruns;
        }
        let clk = dump
            .clk
            .iter()
            .enumerate()
            .flat_map(|(sb, &(phase, edge))| {
                let sb = sb as u32;
                [(phase, EvKind::Phase { sb }), (edge, EvKind::Edge { sb })]
                    .into_iter()
                    .filter(|&(key, _)| key != SLOT_EMPTY)
                    .map(|(key, kind)| Ev {
                        time: SimTime::from_fs((key >> 64) as u64),
                        seq: key as u64,
                        kind,
                    })
            });
        let (n_sbs, n_fifos) = (self.sbs.len() as u32, self.fifos.len() as u32);
        let mut mismatch = false;
        let rest = dump.heap.iter().map_while(|ev| {
            let (a, b) = (ev.a, ev.b);
            let kind = match ev.kind {
                0 if a < n_fifos => EvKind::Push {
                    ch: a,
                    words: One(b),
                },
                1 if a < n_fifos => EvKind::Pop { ch: a },
                2 if a < n_fifos && b < u64::from(self.fifos[a as usize].depth - 1) => {
                    EvKind::Move {
                        ch: a,
                        stage: b as u32,
                    }
                }
                3 if a < n_sbs && b < self.sbs[a as usize].links.len() as u64 => EvKind::Token {
                    sb: a,
                    node: b as u32,
                },
                4 if a < n_sbs && b <= 1 => EvKind::Clken { sb: a, ena: b == 1 },
                _ => {
                    mismatch = true;
                    return None;
                }
            };
            Some(Ev {
                time: ev.time,
                seq: ev.seq,
                kind,
            })
        });
        self.queue.restore(clk.chain(rest));
        if mismatch {
            return Err(CheckpointError::SpecMismatch);
        }
        let jitter_ok = match (&dump.jitter, self.jitter.as_mut()) {
            (None, None) => true,
            (Some(bytes), Some(j)) => j.restore_occ(bytes),
            _ => false,
        };
        if !jitter_ok || !restore_injector(self.injector.as_mut(), &dump.injector) {
            return Err(CheckpointError::SpecMismatch);
        }
        self.now = dump.now;
        self.seq = dump.seq;
        self.events = dump.events;
        Ok(())
    }
}
