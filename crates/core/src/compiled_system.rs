//! Compiled fast-path backend: a whole GALS system lowered to a flat
//! typed-event engine.
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
//! [`CompiledSystem`] lowers a built system description once into flat
//! index-based arrays (`u32` channel/node/SB indices, SoA per-SB state,
//! reused per-edge scratch buffers) and replaces the generic
//! signal/watcher machinery with typed events: FIFO pushes/pops/stage
//! moves, token passes and clock enables in a single `(time, seq)`-
//! ordered heap, plus per-SB clock-phase and rising-edge slots the
//! dispatch loop scans beside the heap top. FIFO occupancy is a `u64`
//! bitmask per channel (one bit per stage, which gates depth to ≤ 64),
//! and on channels whose stage delay exceeds the bundled-data setup
//! delay the internal move cascade never touches the heap at all: moves
//! are queued in a per-channel buffer and drained lazily just before
//! any push, pop or rising edge reads that FIFO. One iteration of the
//! loop advances a whole clock phase segment instead of popping a chain
//! of per-delta kernel events.
//!
//! The engine is **observationally byte-identical** to the event-driven
//! [`System`]: `SbIoTrace` rows, cycle counts, edge times, clock and
//! FIFO statistics, node statistics and end times all match exactly
//! (enforced by the differential tests in `tests/compiled_equiv.rs`).
//! The monotone `seq` tiebreak reproduces the kernel's delta-batch
//! ordering: an event scheduled by a handler always fires after every
//! already-queued event at the same instant, exactly as a zero-delay
//! drive lands in the next delta batch.
//!
//! # Support envelope
//!
//! Lowering requires [`WrapperMode::SynchroTokens`], no node
//! observability signals, every SB half-period at least the bundled
//! data setup delay (1 ps), and every channel FIFO depth between 1 and
//! 64 (the occupancy bitmask is a `u64`). Outside that envelope (bypass
//! mode models metastability through the kernel RNG; sub-picosecond
//! clocks break the bundling constraint the compiled FIFO events rely
//! on),
//! [`SystemBuilder::build_backend`] silently falls back to the event
//! backend — callers never observe a behavioural difference, only a
//! speed difference.

use crate::checkpoint::{
    config_hash, encode_compiled_payload, Checkpoint, CheckpointBackend, CheckpointError,
    CompiledEvDump, CompiledFifoDump, CompiledSbDump, CompiledStateDump, DecodedCheckpoint,
};
use crate::drive::{drive, ChunkRule, Drive};
use crate::faults::{
    DataAction, FaultInjector, JitterCounters, TokenPassAction, CLASS_CLK, CLASS_DATA, CLASS_TOKEN,
};
use crate::iotrace::SbIoTrace;
use crate::logic::{IdleLogic, InputView, OutputSlot, SbIo, SyncLogic};
use crate::node::{NodeFsm, NodePhase, TokenAction};
use crate::spec::{ChannelId, RingId, SbId, SystemSpec};
use crate::system::{RunOutcome, System, SystemBuilder};
use crate::wrapper::{WrapperMode, BUNDLE_DELAY};
use st_sim::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Which engine executes a built system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The general event kernel (signals, watchers, delta batches).
    #[default]
    Event,
    /// The flat typed-event engine, when the spec is in its support
    /// envelope; transparently the event kernel otherwise.
    Compiled,
}

/// Which engine *actually* executes a built [`AnySystem`] — unlike
/// [`Backend`], this distinguishes an explicitly requested event build
/// from a silent fallback out of the compiled envelope, so differential
/// tests can assert the fast path really was exercised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The event kernel, as explicitly requested.
    Event,
    /// The flat typed-event engine.
    Compiled,
    /// The event kernel, reached by falling back from a
    /// [`Backend::Compiled`] request outside the support envelope.
    EventFallback,
}

/// The compiled engine's fault-injection mirror: the same
/// [`JitterCounters`] draws the event backend's `DelayModel` makes (per
/// delivered drive, same `(class, unit, occurrence)` keys) and the same
/// [`FaultInjector`] occurrence matching, applied at the equivalent
/// scheduling sites.
pub(crate) struct ChaosState {
    jitter: Option<JitterCounters>,
    injector: Option<FaultInjector>,
}

impl ChaosState {
    /// Builds the mirror from a plan, or `None` when the plan carries
    /// nothing the run loop has to act on (SEU-only plans are applied
    /// from outside via `node_mut`).
    pub(crate) fn from_plan(
        p: crate::faults::FaultPlan,
        rings: usize,
        channels: usize,
    ) -> Option<Box<ChaosState>> {
        let jitter = p
            .analog
            .is_active()
            .then(|| JitterCounters::new(p.analog, p.seed));
        let injector =
            (!p.protocol.is_empty()).then(|| FaultInjector::new(p.protocol, rings, channels));
        (jitter.is_some() || injector.is_some()).then(|| Box::new(ChaosState { jitter, injector }))
    }

    #[inline]
    pub(crate) fn clk_jitter(&mut self, sb: u32) -> SimDuration {
        match self.jitter.as_mut() {
            Some(j) => j.next(CLASS_CLK, sb),
            None => SimDuration::ZERO,
        }
    }

    #[inline]
    pub(crate) fn token_jitter(&mut self, unit: u32) -> SimDuration {
        match self.jitter.as_mut() {
            Some(j) => j.next(CLASS_TOKEN, unit),
            None => SimDuration::ZERO,
        }
    }

    #[inline]
    pub(crate) fn data_jitter(&mut self, unit: u32) -> SimDuration {
        match self.jitter.as_mut() {
            Some(j) => j.next(CLASS_DATA, unit),
            None => SimDuration::ZERO,
        }
    }

    #[inline]
    pub(crate) fn on_push(&mut self, ch: ChannelId) -> DataAction {
        match self.injector.as_mut() {
            Some(i) => i.on_push(ch),
            None => DataAction::Deliver,
        }
    }

    #[inline]
    pub(crate) fn on_ack(&mut self, ch: ChannelId) -> DataAction {
        match self.injector.as_mut() {
            Some(i) => i.on_ack(ch),
            None => DataAction::Deliver,
        }
    }

    #[inline]
    pub(crate) fn on_token_pass(&mut self, ring: RingId, to_holder: bool) -> TokenPassAction {
        match self.injector.as_mut() {
            Some(i) => i.on_token_pass(ring, to_holder),
            None => TokenPassAction::Deliver,
        }
    }

    /// Occurrence-counter snapshots for checkpointing:
    /// `(jitter occurrence bytes, injector counters)` — each `None`
    /// when the corresponding layer is not active. Shared by the
    /// scalar and batched engines' checkpoint paths.
    pub(crate) fn snapshot_counters(&self) -> SnapshotCounters {
        (
            self.jitter.as_ref().map(JitterCounters::snapshot_occ),
            self.injector.as_ref().map(FaultInjector::snapshot_counters),
        )
    }
}

/// `(jitter occurrence bytes, injector counters)` as captured by
/// [`ChaosState::snapshot_counters`].
pub(crate) type SnapshotCounters = (Option<Vec<u8>>, Option<(Vec<u64>, Vec<u64>, Vec<u64>)>);

/// A typed event. `u32` indices keep the heap payload at two words
/// beside the timestamp. Clock phase boundaries and rising edges do
/// not appear here: each SB has at most one of each pending, so they
/// live in per-SB slots (`SbState::phase_at` / `posedge_at`) that the
/// dispatch loop scans beside the heap top — same `(time, seq)` keys,
/// same order, no heap traffic for the per-cycle clock machinery.
#[derive(Debug, Clone, Copy)]
enum EvKind {
    /// A bundled-data word arrives at channel `ch`'s tail.
    Push { ch: u32, word: u64 },
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

/// Heap entry ordered by `(time, seq)`; `seq` is globally monotone, so
/// ordering ignores the payload (seqs are unique).
#[derive(Debug, Clone, Copy)]
struct Ev {
    time: SimTime,
    seq: u64,
    kind: EvKind,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// One token-ring node, with its pass destination pre-resolved to flat
/// indices.
#[derive(Debug)]
struct CompiledNode {
    ring: RingId,
    fsm: NodeFsm,
    /// SB index the pass toggle lands in.
    dest_sb: u32,
    /// Node index within the destination SB.
    dest_node: u32,
    /// Node output delay + ring wire delay to the peer.
    pass_delay: SimDuration,
    /// True when outgoing passes travel toward the ring's initial
    /// holder (i.e. this node sits on the peer side) — the token
    /// fault-injection direction bit.
    to_holder: bool,
}

/// Flattened per-SB state: clock, wrapper and scratch in one place.
struct SbState {
    half: SimDuration,
    restart_delay: SimDuration,
    logic_delay: SimDuration,
    logic: Box<dyn SyncLogic>,
    nodes: Vec<CompiledNode>,
    /// Input channels in channel-id order: (channel index, node index).
    inputs: Vec<(u32, u32)>,
    /// Output channels in channel-id order: (channel index, node index).
    outputs: Vec<(u32, u32)>,
    // Clock state (mirrors StoppableClock).
    clk_high: bool,
    parked: bool,
    clken: bool,
    edges: u64,
    clock_stops: u64,
    // Wrapper state (mirrors SbWrapper).
    cycle: u64,
    trace: SbIoTrace,
    dropped_words: u64,
    timing_violations: u64,
    last_edge: Option<SimTime>,
    edge_times: Vec<SimTime>,
    edge_times_cap: usize,
    // Per-edge scratch, reused so the steady state allocates nothing.
    views: Vec<InputView>,
    slots: Vec<OutputSlot>,
    pops: Vec<bool>,
}

/// Flattened self-timed FIFO state (mirrors `SelfTimedFifo`, minus the
/// published signals — the engine reads `stages` directly, which under
/// the support envelope is always what the published signals would say
/// at the instant a wrapper samples them).
#[derive(Debug)]
struct FifoState {
    /// Stage occupancy, bit `s` set when stage `s` holds a word.
    /// Bit 0 is the tail; bit `depth - 1` is the head. Lowering
    /// requires `depth <= 64` so the whole ladder fits one word.
    occ: u64,
    /// The word in each stage (meaningful only where `occ` is set).
    words: Vec<u64>,
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

impl FifoState {
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
    /// event (the totals must match the non-virtualized engine).
    fn drain(&mut self, upto: SimTime, events: &mut u64) {
        // Cursor walk: applied entries are cleared in one splice at the
        // end. Follow-ups queued during the walk land at `at + F`, i.e.
        // never before the cursor, so indexing stays stable.
        let mut i = 0;
        while let Some(&(at, stage)) = self.pending.get(i) {
            if at > upto {
                break;
            }
            i += 1;
            self.apply_move(at, stage as usize);
        }
        if i > 0 {
            *events += i as u64;
            self.pending.drain(..i);
        }
    }

    /// One stage-advance attempt on a virtualized channel (the private
    /// twin of `CompiledSystem::on_move`, follow-ups queued privately).
    fn apply_move(&mut self, now: SimTime, stage: usize) {
        let bit = 1u64 << stage;
        if self.occ & bit == 0 {
            return; // Stale movement.
        }
        if self.occ & (bit << 1) != 0 {
            return; // Blocked; a later pop/advance requeues.
        }
        self.occ ^= bit | (bit << 1);
        self.words[stage + 1] = self.words[stage];
        if stage as u32 + 2 < self.depth {
            self.queue_move(now + self.stage_delay, (stage + 1) as u32);
        }
        if stage > 0 && self.occ & (bit >> 1) != 0 {
            self.queue_move(now + self.stage_delay, (stage - 1) as u32);
        }
    }
}

/// A pending clock event as a packed `(time << 64) | seq` sort key;
/// `u128::MAX` marks an empty slot. One compare orders two keys the
/// same way `(time, seq)` tuples would, and the per-SB array is dense
/// enough that the dispatch loop's scan stays in one or two cache
/// lines for paper-scale systems.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ClockSlots {
    /// The next phase boundary (rising or falling check).
    pub(crate) phase: u128,
    /// The pending rising-edge delivery to the wrapper.
    pub(crate) posedge: u128,
}

pub(crate) const SLOT_EMPTY: u128 = u128::MAX;

#[inline]
pub(crate) fn slot_key(time: SimTime, seq: u64) -> u128 {
    (u128::from(time.as_fs()) << 64) | u128::from(seq)
}

#[inline]
pub(crate) fn slot_time(key: u128) -> SimTime {
    SimTime::from_fs((key >> 64) as u64)
}

/// A system lowered to the flat typed-event engine.
///
/// Build one through [`SystemBuilder::build_backend`] with
/// [`Backend::Compiled`]; the accessor surface mirrors [`System`].
pub struct CompiledSystem {
    spec: SystemSpec,
    spec_hash: [u8; 16],
    sbs: Vec<SbState>,
    fifos: Vec<FifoState>,
    /// Pending clock events, one pair of slots per SB (indexed like
    /// `sbs`). At most one phase boundary and one rising edge exist
    /// per SB at any time, so they never need the heap; seqs still
    /// come from the same global counter at the same points, keeping
    /// dispatch order identical to a single-queue engine.
    clk: Vec<ClockSlots>,
    heap: BinaryHeap<Reverse<Ev>>,
    now: SimTime,
    seq: u64,
    events: u64,
    /// Fault-injection mirror, present only when a plan is attached.
    chaos: Option<Box<ChaosState>>,
}

impl Drive for CompiledSystem {
    fn now(&self) -> SimTime {
        self.now
    }

    fn min_cycles(&self) -> u64 {
        CompiledSystem::min_cycles(self)
    }

    fn run_chunk(&mut self, until: SimTime) -> Result<bool, SimError> {
        Ok(self.run_until(until)?.quiescent)
    }

    fn stopped_sbs(&self) -> Vec<SbId> {
        CompiledSystem::stopped_sbs(self)
    }
}

impl std::fmt::Debug for CompiledSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledSystem")
            .field("sbs", &self.sbs.len())
            .field("now", &self.now)
            .field("pending_events", &self.heap.len())
            .finish()
    }
}

#[inline]
fn sched(heap: &mut BinaryHeap<Reverse<Ev>>, seq: &mut u64, time: SimTime, kind: EvKind) {
    let s = *seq;
    *seq += 1;
    heap.push(Reverse(Ev { time, seq: s, kind }));
}

impl CompiledSystem {
    /// Whether `builder`'s system can be lowered.
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

    /// Lowers the builder, or hands it back untouched when the system
    /// is outside the support envelope. Runs once per build, so the
    /// by-value `Err` hand-back costs nothing measurable.
    #[allow(clippy::result_large_err)]
    fn lower(mut builder: SystemBuilder) -> Result<CompiledSystem, SystemBuilder> {
        if !Self::supports(&builder) {
            return Err(builder);
        }
        let spec = builder.spec.clone();
        // Before `faults` is consumed below: the hash covers the plan.
        let spec_hash = config_hash(
            &spec,
            builder.seed,
            builder.trace_limit,
            builder.faults.as_ref(),
        );
        let trace_limit = builder.trace_limit;
        let chaos = builder
            .faults
            .take()
            .and_then(|p| ChaosState::from_plan(p, spec.rings.len(), spec.channels.len()));

        let fifos: Vec<FifoState> = spec
            .channels
            .iter()
            .map(|ch| FifoState {
                occ: 0,
                words: vec![0; ch.fifo_depth],
                depth: ch.fifo_depth as u32,
                stage_delay: ch.stage_delay,
                virtualized: ch.stage_delay > BUNDLE_DELAY,
                pending: Vec::new(),
                pushes: 0,
                pops: 0,
                overruns: 0,
                underruns: 0,
            })
            .collect();

        // First pass: per-SB node lists in the same order the event
        // builder creates them (rings_of order), so node indices match.
        let mut node_rings: Vec<Vec<RingId>> = Vec::with_capacity(spec.sbs.len());
        for i in 0..spec.sbs.len() {
            node_rings.push(spec.rings_of(SbId(i)).map(|(rid, _)| rid).collect());
        }
        let node_index = |sb: usize, ring: RingId| -> u32 {
            node_rings[sb]
                .iter()
                .position(|r| *r == ring)
                .expect("peer SB must have a node on the shared ring") as u32
        };

        let mut sbs = Vec::with_capacity(spec.sbs.len());
        for (i, sb_spec) in spec.sbs.iter().enumerate() {
            let sb = SbId(i);
            let half = sb_spec.period / 2;
            let mut nodes = Vec::new();
            for (ring_id, ring) in spec.rings_of(sb) {
                let holder_side = ring.holder == sb;
                let fsm = if holder_side {
                    NodeFsm::new_holder(ring.holder_node)
                } else {
                    let initial = ring.peer_initial_recycle.unwrap_or(ring.peer_node.recycle);
                    NodeFsm::new_waiter(ring.peer_node, initial)
                };
                let (dest, pass_delay) = if holder_side {
                    (ring.peer, ring.delay_fwd)
                } else {
                    (ring.holder, ring.delay_back)
                };
                nodes.push(CompiledNode {
                    ring: ring_id,
                    fsm,
                    dest_sb: dest.0 as u32,
                    dest_node: node_index(dest.0, ring_id),
                    pass_delay,
                    to_holder: !holder_side,
                });
            }
            let inputs: Vec<(u32, u32)> = spec
                .inputs_of(sb)
                .map(|(cid, ch)| (cid.0 as u32, node_index(i, ch.ring)))
                .collect();
            let outputs: Vec<(u32, u32)> = spec
                .outputs_of(sb)
                .map(|(cid, ch)| (cid.0 as u32, node_index(i, ch.ring)))
                .collect();
            let logic = builder
                .logics
                .remove(&i)
                .unwrap_or_else(|| Box::new(IdleLogic));
            let n_inputs = inputs.len();
            let n_outputs = outputs.len();
            sbs.push(SbState {
                half,
                restart_delay: half / 10,
                logic_delay: sb_spec.logic_delay,
                logic,
                nodes,
                inputs,
                outputs,
                clk_high: false,
                parked: false,
                // The wrapper drives clken high from Start; nodes never
                // begin in `Stopped`, so the enable starts asserted.
                clken: true,
                edges: 0,
                clock_stops: 0,
                cycle: 0,
                trace: SbIoTrace::with_limit(trace_limit),
                dropped_words: 0,
                timing_violations: 0,
                last_edge: None,
                edge_times: Vec::new(),
                edge_times_cap: if trace_limit == 0 {
                    1 << 20
                } else {
                    trace_limit
                },
                views: Vec::with_capacity(n_inputs),
                slots: Vec::with_capacity(n_outputs),
                pops: vec![false; n_inputs],
            });
        }

        let n_sbs = sbs.len();
        let mut sys = CompiledSystem {
            spec,
            spec_hash,
            sbs,
            fifos,
            clk: vec![
                ClockSlots {
                    phase: SLOT_EMPTY,
                    posedge: SLOT_EMPTY,
                };
                n_sbs
            ],
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
            events: 0,
            chaos,
        };
        // First phase boundary of every clock, in SB (registration)
        // order — the same relative order the kernel's start timers get.
        for i in 0..n_sbs {
            sys.clk[i].phase = slot_key(SimTime::ZERO + sys.sbs[i].half, sys.seq);
            sys.seq += 1;
        }
        Ok(sys)
    }

    /// Runs until simulated time would exceed `deadline` or the heap
    /// drains. Mirrors `Simulator::run_until`, including processing
    /// events exactly at the deadline and advancing `now` to the
    /// deadline on quiescence.
    ///
    /// # Errors
    ///
    /// Never fails; the `Result` matches the event backend's signature.
    pub fn run_until(&mut self, deadline: SimTime) -> Result<RunSummary, SimError> {
        let fired_before = self.events;
        let mut quiescent = false;
        let deadline_fs = deadline.as_fs();
        // Dispatch sources: clock slots are scanned linearly (two
        // packed keys per SB), everything else comes off the heap.
        // Seqs are globally unique, so the packed-key minimum is
        // unique and the pop order is identical to a single-queue
        // engine.
        loop {
            let mut best = SLOT_EMPTY;
            let mut src_sb = usize::MAX; // usize::MAX = heap (or none)
            let mut is_posedge = false;
            for (i, c) in self.clk.iter().enumerate() {
                if c.phase < best {
                    best = c.phase;
                    src_sb = i;
                    is_posedge = false;
                }
                if c.posedge < best {
                    best = c.posedge;
                    src_sb = i;
                    is_posedge = true;
                }
            }
            let heap_first = match self.heap.peek() {
                Some(&Reverse(ev)) => {
                    let k = slot_key(ev.time, ev.seq);
                    if k < best {
                        best = k;
                        true
                    } else {
                        false
                    }
                }
                None => false,
            };
            if best == SLOT_EMPTY {
                quiescent = true;
                break;
            }
            if (best >> 64) as u64 > deadline_fs {
                break;
            }
            self.now = slot_time(best);
            self.events += 1;
            if heap_first {
                let Some(Reverse(ev)) = self.heap.pop() else {
                    unreachable!("heap top vanished");
                };
                match ev.kind {
                    EvKind::Push { ch, word } => self.on_push(ch as usize, word),
                    EvKind::Pop { ch } => self.on_pop(ch as usize),
                    EvKind::Move { ch, stage } => self.on_move(ch as usize, stage as usize),
                    EvKind::Token { sb, node } => self.on_token(sb as usize, node as usize),
                    EvKind::Clken { sb, ena } => self.on_clken(sb as usize, ena),
                }
            } else if is_posedge {
                self.clk[src_sb].posedge = SLOT_EMPTY;
                self.on_posedge(src_sb);
            } else {
                self.clk[src_sb].phase = SLOT_EMPTY;
                self.on_phase(src_sb);
            }
        }
        // Settle virtualized FIFO cascades: every move that would have
        // fired by the deadline is applied (and counted) now, so the
        // externally observable state and event totals match the
        // all-real-events engine at every chunk boundary. Moves only
        // schedule moves, so draining cannot wake anything global —
        // but moves still pending *beyond* the deadline would have
        // kept the reference engine's heap non-empty, so they veto
        // quiescence.
        for f in &mut self.fifos {
            if !f.pending.is_empty() {
                f.drain(deadline, &mut self.events);
                if !f.pending.is_empty() {
                    quiescent = false;
                }
            }
        }
        if self.now < deadline {
            self.now = deadline;
        }
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
    /// the same chunk loop as [`System::run_until_cycles`], so
    /// intermediate end times match exactly.
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
        drive(self, rule, self.now + max_time, None)
    }

    /// A verdict run, as [`System::run_to_verdict`]: the outcome and
    /// traces of [`run_until_cycles`](Self::run_until_cycles), with an
    /// unspecified end state.
    ///
    /// # Errors
    ///
    /// Never fails; the `Result` matches the event backend's signature.
    pub fn run_to_verdict(
        &mut self,
        cycles: u64,
        max_time: SimDuration,
    ) -> Result<RunOutcome, SimError> {
        let limit = self.sbs.first().map_or(0, |s| s.trace.limit());
        let rule = ChunkRule::new(&self.spec, cycles, Some(limit));
        drive(self, rule, self.now + max_time, None)
    }

    // --- event handlers -------------------------------------------------

    /// Clock phase boundary (mirrors `StoppableClock`'s phase timer).
    fn on_phase(&mut self, sbi: usize) {
        let now = self.now;
        let Self {
            sbs,
            clk,
            seq,
            chaos,
            ..
        } = self;
        let sb = &mut sbs[sbi];
        if sb.parked {
            // Stale phase while parked cannot happen (parking consumes
            // the only outstanding phase event), but mirror the clock's
            // defensive guard.
            return;
        }
        if sb.clk_high {
            // Falling edges always complete.
            sb.clk_high = false;
            clk[sbi].phase = slot_key(now + sb.half, *seq);
            *seq += 1;
        } else if sb.clken {
            sb.clk_high = true;
            sb.edges += 1;
            // Analog faults jitter the rising drive only; the phase
            // timer (and so the falling edge) stays on the oscillator's
            // nominal grid, mirroring the event backend's `DelayModel`
            // perturbing the `clk <- One` drive and nothing else.
            let j = match chaos.as_deref_mut() {
                Some(c) => c.clk_jitter(sbi as u32),
                None => SimDuration::ZERO,
            };
            // The rising edge reaches the wrapper "one delta later":
            // the fresh seq puts it after every event already queued at
            // this instant, exactly like the kernel's zero-delay drive.
            clk[sbi].posedge = slot_key(now + j, *seq);
            *seq += 1;
            clk[sbi].phase = slot_key(now + sb.half, *seq);
            *seq += 1;
        } else {
            // Synchronous stop: park with the clock low.
            sb.parked = true;
            sb.clock_stops += 1;
        }
    }

    /// Clock-enable change (mirrors the `clken` signal: unchanged
    /// values are suppressed, a rise while parked restarts the clock).
    fn on_clken(&mut self, sbi: usize, ena: bool) {
        let now = self.now;
        let Self {
            sbs,
            clk,
            seq,
            chaos,
            ..
        } = self;
        let sb = &mut sbs[sbi];
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
            let j = match chaos.as_deref_mut() {
                Some(c) => c.clk_jitter(sbi as u32),
                None => SimDuration::ZERO,
            };
            clk[sbi].posedge = slot_key(now + sb.restart_delay + j, *seq);
            *seq += 1;
            clk[sbi].phase = slot_key(now + sb.restart_delay + sb.half, *seq);
            *seq += 1;
        }
    }

    /// Token toggle arrival (mirrors `SbWrapper::handle_token`; toggles
    /// always change value, so there is no suppression to replicate).
    fn on_token(&mut self, sbi: usize, node: usize) {
        let now = self.now;
        let Self { sbs, heap, seq, .. } = self;
        let sb = &mut sbs[sbi];
        if sb.nodes[node].fsm.token_arrived() == TokenAction::RestartClock {
            let ena = sb.nodes.iter().all(|n| n.fsm.clock_enabled());
            sched(
                heap,
                seq,
                now,
                EvKind::Clken {
                    sb: sbi as u32,
                    ena,
                },
            );
        }
    }

    /// Bundled-data push arrival (mirrors the FIFO's `put_req` wake; the
    /// event carries the word captured at transmit time, which under the
    /// half-period ≥ bundle-delay envelope equals what `put_data` holds
    /// when the request lands).
    fn on_push(&mut self, chi: usize, word: u64) {
        let now = self.now;
        let Self {
            fifos,
            heap,
            seq,
            events,
            ..
        } = self;
        let f = &mut fifos[chi];
        if f.virtualized {
            f.drain(now, events);
        }
        if f.occ & 1 != 0 {
            f.overruns += 1;
            return;
        }
        f.occ |= 1;
        f.words[0] = word;
        f.pushes += 1;
        if f.depth > 1 {
            if f.virtualized {
                f.queue_move(now + f.stage_delay, 0);
            } else {
                sched(
                    heap,
                    seq,
                    now + f.stage_delay,
                    EvKind::Move {
                        ch: chi as u32,
                        stage: 0,
                    },
                );
            }
        }
    }

    /// Acknowledge arrival (mirrors the FIFO's `get_ack` wake).
    fn on_pop(&mut self, chi: usize) {
        let now = self.now;
        let Self {
            fifos,
            heap,
            seq,
            events,
            ..
        } = self;
        let f = &mut fifos[chi];
        if f.virtualized {
            f.drain(now, events);
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
            if f.virtualized {
                f.queue_move(now + f.stage_delay, (head - 1) as u32);
            } else {
                sched(
                    heap,
                    seq,
                    now + f.stage_delay,
                    EvKind::Move {
                        ch: chi as u32,
                        stage: (head - 1) as u32,
                    },
                );
            }
        }
    }

    /// Stage-advance attempt (mirrors the FIFO's move timer, including
    /// the stale/blocked checks and the follow-up scheduling order).
    fn on_move(&mut self, chi: usize, stage: usize) {
        let now = self.now;
        let Self {
            fifos, heap, seq, ..
        } = self;
        let f = &mut fifos[chi];
        let bit = 1u64 << stage;
        if f.occ & bit == 0 {
            return; // Stale movement (word already popped/advanced).
        }
        if f.occ & (bit << 1) != 0 {
            return; // Blocked; a later pop/advance reschedules.
        }
        f.occ ^= bit | (bit << 1);
        f.words[stage + 1] = f.words[stage];
        let head = (f.depth - 1) as usize;
        if stage + 1 < head {
            sched(
                heap,
                seq,
                now + f.stage_delay,
                EvKind::Move {
                    ch: chi as u32,
                    stage: (stage + 1) as u32,
                },
            );
        }
        if stage > 0 && f.occ & (bit >> 1) != 0 {
            sched(
                heap,
                seq,
                now + f.stage_delay,
                EvKind::Move {
                    ch: chi as u32,
                    stage: (stage - 1) as u32,
                },
            );
        }
    }

    /// Rising edge at the wrapper (a step-for-step port of
    /// `SbWrapper::handle_posedge`, reading FIFO stages directly).
    fn on_posedge(&mut self, sbi: usize) {
        let now = self.now;
        let Self {
            sbs,
            fifos,
            heap,
            seq,
            events,
            chaos,
            ..
        } = self;
        let sb = &mut sbs[sbi];

        // 0. Setup-time check against the modelled critical path.
        let violated = match sb.last_edge {
            Some(prev) if !sb.logic_delay.is_zero() => now.since(prev) < sb.logic_delay,
            _ => false,
        };
        sb.last_edge = Some(now);
        if violated {
            sb.timing_violations += 1;
        }
        if sb.edge_times.len() < sb.edge_times_cap {
            sb.edge_times.push(now);
        }

        // 1–2. Input interfaces, gated by this cycle's enable windows.
        // The node FSMs only advance in step 7, so querying them per
        // interface reads the same pre-step state the wrapper's
        // once-per-cycle enable snapshot would.
        sb.views.clear();
        sb.pops.iter_mut().for_each(|p| *p = false);
        for (i, &(ch, node_idx)) in sb.inputs.iter().enumerate() {
            let ena = sb.nodes[node_idx as usize].fsm.interfaces_enabled();
            let f = &mut fifos[ch as usize];
            if f.virtualized {
                f.drain(now, events);
            }
            let head_bit = 1u64 << (f.depth - 1);
            let head = if f.occ & head_bit != 0 {
                Some(f.words[(f.depth - 1) as usize])
            } else {
                None
            };
            let view = if ena && head.is_some() {
                sb.pops[i] = true;
                InputView {
                    data: head,
                    enabled: true,
                    empty: false,
                }
            } else {
                InputView {
                    data: None,
                    enabled: ena,
                    empty: ena,
                }
            };
            sb.views.push(view);
        }

        // 3. Output availability.
        sb.slots.clear();
        for &(ch, node_idx) in &sb.outputs {
            let f = &mut fifos[ch as usize];
            if f.virtualized {
                f.drain(now, events);
            }
            sb.slots.push(OutputSlot {
                can_send: sb.nodes[node_idx as usize].fsm.interfaces_enabled() && f.occ & 1 == 0,
                word: None,
            });
        }

        // 4. The synchronous logic computes.
        {
            let logic = &mut sb.logic;
            let mut io = SbIo::new(&sb.views, &mut sb.slots);
            logic.tick(sb.cycle, &mut io);
        }

        // 5. Transmit accepted words.
        for (k, &(ch, _)) in sb.outputs.iter().enumerate() {
            match sb.slots[k]
                .word
                .map(|w| if violated { w ^ 0x5A5A } else { w })
            {
                Some(w) if sb.slots[k].can_send => {
                    let action = match chaos.as_deref_mut() {
                        Some(c) => c.on_push(ChannelId(ch as usize)),
                        None => DataAction::Deliver,
                    };
                    match action {
                        DataAction::Drop => {
                            // Request toggle lost on the wire; the trace
                            // still records the transmit.
                        }
                        DataAction::Delay(extra) => {
                            let j = match chaos.as_deref_mut() {
                                Some(c) => c.data_jitter(ch * 2),
                                None => SimDuration::ZERO,
                            };
                            sched(
                                heap,
                                seq,
                                now + BUNDLE_DELAY + extra + j,
                                EvKind::Push { ch, word: w },
                            );
                        }
                        DataAction::Deliver => {
                            let j = match chaos.as_deref_mut() {
                                Some(c) => c.data_jitter(ch * 2),
                                None => SimDuration::ZERO,
                            };
                            sched(
                                heap,
                                seq,
                                now + BUNDLE_DELAY + j,
                                EvKind::Push { ch, word: w },
                            );
                        }
                    }
                }
                Some(_) => sb.dropped_words += 1,
                None => {}
            }
        }

        // 6. Acknowledge consumed words.
        for (i, &(ch, _)) in sb.inputs.iter().enumerate() {
            if sb.pops[i] {
                let action = match chaos.as_deref_mut() {
                    Some(c) => c.on_ack(ChannelId(ch as usize)),
                    None => DataAction::Deliver,
                };
                match action {
                    DataAction::Drop => {
                        // Acknowledge toggle lost: the head never pops.
                    }
                    DataAction::Delay(extra) => {
                        let j = match chaos.as_deref_mut() {
                            Some(c) => c.data_jitter(ch * 2 + 1),
                            None => SimDuration::ZERO,
                        };
                        sched(
                            heap,
                            seq,
                            now + BUNDLE_DELAY + extra + j,
                            EvKind::Pop { ch },
                        );
                    }
                    DataAction::Deliver => {
                        let j = match chaos.as_deref_mut() {
                            Some(c) => c.data_jitter(ch * 2 + 1),
                            None => SimDuration::ZERO,
                        };
                        sched(heap, seq, now + BUNDLE_DELAY + j, EvKind::Pop { ch });
                    }
                }
            }
        }

        // 7. Node FSMs advance; tokens pass; clock enable updates.
        let mut any_stop = false;
        for n in &mut sb.nodes {
            let action = n.fsm.on_posedge();
            if action.pass_token {
                let dest = EvKind::Token {
                    sb: n.dest_sb,
                    node: n.dest_node,
                };
                let unit = (n.ring.0 * 2 + usize::from(n.to_holder)) as u32;
                let pass = match chaos.as_deref_mut() {
                    Some(c) => c.on_token_pass(n.ring, n.to_holder),
                    None => TokenPassAction::Deliver,
                };
                match pass {
                    TokenPassAction::Drop => {
                        // Toggle lost on the ring: no arrival, and (as on
                        // the event backend, where no drive happens) no
                        // jitter draw.
                    }
                    TokenPassAction::Delay(extra) => {
                        let j = match chaos.as_deref_mut() {
                            Some(c) => c.token_jitter(unit),
                            None => SimDuration::ZERO,
                        };
                        sched(heap, seq, now + n.pass_delay + extra + j, dest);
                    }
                    TokenPassAction::Duplicate(extra) => {
                        // Two toggles = two arrivals = two drive draws,
                        // exactly like the event backend's pair of
                        // perturbed drives.
                        let (j1, j2) = match chaos.as_deref_mut() {
                            Some(c) => (c.token_jitter(unit), c.token_jitter(unit)),
                            None => (SimDuration::ZERO, SimDuration::ZERO),
                        };
                        sched(heap, seq, now + n.pass_delay + j1, dest);
                        sched(heap, seq, now + n.pass_delay + extra + j2, dest);
                    }
                    TokenPassAction::Deliver => {
                        let j = match chaos.as_deref_mut() {
                            Some(c) => c.token_jitter(unit),
                            None => SimDuration::ZERO,
                        };
                        sched(heap, seq, now + n.pass_delay + j, dest);
                    }
                }
            }
            any_stop |= action.stop_clock;
        }
        if any_stop {
            let ena = sb.nodes.iter().all(|n| n.fsm.clock_enabled());
            sched(
                heap,
                seq,
                now,
                EvKind::Clken {
                    sb: sbi as u32,
                    ena,
                },
            );
        }

        // 8. Record the determinism trace row.
        sb.trace.record_with(
            sb.cycle,
            sb.views.iter().map(|v| v.data),
            sb.slots.iter().map(|s| s.transmitted(violated)),
        );
        sb.cycle += 1;
    }

    // --- accessors (mirror `System`) ------------------------------------

    fn min_cycles(&self) -> u64 {
        self.sbs.iter().map(|s| s.cycle).min().unwrap_or(0)
    }

    /// The specification this system was built from.
    pub fn spec(&self) -> &SystemSpec {
        &self.spec
    }

    /// Local cycles elapsed in `sb`.
    pub fn cycles(&self, sb: SbId) -> u64 {
        self.sbs[sb.0].cycle
    }

    /// The I/O trace of `sb`.
    pub fn io_trace(&self, sb: SbId) -> &SbIoTrace {
        &self.sbs[sb.0].trace
    }

    /// The final state of `sb`'s logic, downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the logic attached to `sb` is not a `T`.
    pub fn logic<T: SyncLogic>(&self, sb: SbId) -> &T {
        let logic: &dyn SyncLogic = self.sbs[sb.0].logic.as_ref();
        (logic as &dyn std::any::Any)
            .downcast_ref::<T>()
            .expect("logic type mismatch")
    }

    /// Mutable access to `sb`'s logic.
    ///
    /// # Panics
    ///
    /// Panics if the logic attached to `sb` is not a `T`.
    pub fn logic_mut<T: SyncLogic>(&mut self, sb: SbId) -> &mut T {
        let logic: &mut dyn SyncLogic = self.sbs[sb.0].logic.as_mut();
        (logic as &mut dyn std::any::Any)
            .downcast_mut::<T>()
            .expect("logic type mismatch")
    }

    /// The phase of `sb`'s node on `ring`, if it has one.
    pub fn node_phase(&self, sb: SbId, ring: RingId) -> Option<NodePhase> {
        self.node(sb, ring).map(NodeFsm::phase)
    }

    /// The node FSM itself (token statistics etc.).
    pub fn node(&self, sb: SbId, ring: RingId) -> Option<&NodeFsm> {
        self.sbs[sb.0]
            .nodes
            .iter()
            .find(|n| n.ring == ring)
            .map(|n| &n.fsm)
    }

    /// Mutable node access (debug hooks, SEU injection).
    pub fn node_mut(&mut self, sb: SbId, ring: RingId) -> Option<&mut NodeFsm> {
        self.sbs[sb.0]
            .nodes
            .iter_mut()
            .find(|n| n.ring == ring)
            .map(|n| &mut n.fsm)
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
        self.sbs[sb.0].dropped_words
    }

    /// Bypass-mode metastable samples: always zero (the compiled engine
    /// only runs synchro-tokens mode).
    pub fn metastable_samples(&self, _sb: SbId) -> u64 {
        0
    }

    /// Setup-time violations taken by `sb`.
    pub fn timing_violations(&self, sb: SbId) -> u64 {
        self.sbs[sb.0].timing_violations
    }

    /// Wall-clock times of `sb`'s rising edges, indexed by local cycle
    /// (capped at the trace limit).
    pub fn edge_times(&self, sb: SbId) -> &[SimTime] {
        &self.sbs[sb.0].edge_times
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Typed events processed so far (the engine's analogue of the
    /// kernel's fired-event counter; each event wakes one handler).
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// The configuration content key this system (and its checkpoints)
    /// are bound to.
    pub fn spec_hash(&self) -> [u8; 16] {
        self.spec_hash
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
        let mut sbs = Vec::with_capacity(self.sbs.len());
        for sb in &self.sbs {
            let logic = sb.logic.save_state().ok_or(CheckpointError::Unsupported(
                "attached logic does not implement save_state",
            ))?;
            sbs.push(CompiledSbDump {
                clk_high: sb.clk_high,
                parked: sb.parked,
                clken: sb.clken,
                edges: sb.edges,
                clock_stops: sb.clock_stops,
                cycle: sb.cycle,
                dropped_words: sb.dropped_words,
                timing_violations: sb.timing_violations,
                last_edge: sb.last_edge,
                edge_times: sb.edge_times.clone(),
                trace: sb.trace.clone(),
                nodes: sb.nodes.iter().map(|n| n.fsm.snapshot()).collect(),
                logic,
            });
        }
        let mut heap: Vec<&Ev> = self.heap.iter().map(|Reverse(ev)| ev).collect();
        heap.sort_unstable_by_key(|ev| (ev.time, ev.seq));
        let heap = heap
            .into_iter()
            .map(|ev| {
                let (kind, a, b) = match ev.kind {
                    EvKind::Push { ch, word } => (0, ch, word),
                    EvKind::Pop { ch } => (1, ch, 0),
                    EvKind::Move { ch, stage } => (2, ch, u64::from(stage)),
                    EvKind::Token { sb, node } => (3, sb, u64::from(node)),
                    EvKind::Clken { sb, ena } => (4, sb, u64::from(ena)),
                };
                CompiledEvDump {
                    time: ev.time,
                    seq: ev.seq,
                    kind,
                    a,
                    b,
                }
            })
            .collect();
        let dump = CompiledStateDump {
            now: self.now,
            seq: self.seq,
            events: self.events,
            clk: self.clk.iter().map(|c| (c.phase, c.posedge)).collect(),
            heap,
            sbs,
            fifos: self
                .fifos
                .iter()
                .map(|f| CompiledFifoDump {
                    occ: f.occ,
                    words: f.words.clone(),
                    pending: f.pending.clone(),
                    pushes: f.pushes,
                    pops: f.pops,
                    overruns: f.overruns,
                    underruns: f.underruns,
                })
                .collect(),
            jitter: self
                .chaos
                .as_ref()
                .and_then(|c| c.jitter.as_ref())
                .map(JitterCounters::snapshot_occ),
            injector: self
                .chaos
                .as_ref()
                .and_then(|c| c.injector.as_ref())
                .map(FaultInjector::snapshot_counters),
        };
        Ok(Checkpoint::new(
            CheckpointBackend::Compiled,
            self.spec_hash,
            self.min_cycles(),
            self.now,
            encode_compiled_payload(&dump),
        ))
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
    ) -> Result<CompiledSystem, CheckpointError> {
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
    ) -> Result<CompiledSystem, CheckpointError> {
        let hash = config_hash(
            &builder.spec,
            builder.seed,
            builder.trace_limit,
            builder.faults.as_ref(),
        );
        if hash != checkpoint.spec_hash() {
            return Err(CheckpointError::SpecMismatch);
        }
        let mut sys = CompiledSystem::lower(builder).map_err(|_| {
            CheckpointError::Unsupported("system is outside the compiled support envelope")
        })?;
        sys.restore_decoded(checkpoint)?;
        Ok(sys)
    }

    /// Restores this engine in place to the checkpointed state, reusing
    /// every existing allocation (trace rows, edge-time ring, FIFO
    /// buffers, event heap). Equivalent to
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
    ///   or any structural shape disagrees.
    pub fn restore_decoded(
        &mut self,
        checkpoint: &DecodedCheckpoint,
    ) -> Result<(), CheckpointError> {
        let crate::checkpoint::DecodedState::Compiled(dump) = &checkpoint.state else {
            return Err(CheckpointError::BackendMismatch);
        };
        if self.spec_hash != checkpoint.spec_hash() {
            return Err(CheckpointError::SpecMismatch);
        }
        if dump.sbs.len() != self.sbs.len()
            || dump.fifos.len() != self.fifos.len()
            || dump.clk.len() != self.clk.len()
        {
            return Err(CheckpointError::SpecMismatch);
        }
        for (sb, d) in self.sbs.iter_mut().zip(&dump.sbs) {
            if d.nodes.len() != sb.nodes.len() || !sb.logic.restore_state(&d.logic) {
                return Err(CheckpointError::SpecMismatch);
            }
            sb.clk_high = d.clk_high;
            sb.parked = d.parked;
            sb.clken = d.clken;
            sb.edges = d.edges;
            sb.clock_stops = d.clock_stops;
            sb.cycle = d.cycle;
            sb.dropped_words = d.dropped_words;
            sb.timing_violations = d.timing_violations;
            sb.last_edge = d.last_edge;
            sb.edge_times.clone_from(&d.edge_times);
            sb.trace.clone_from(&d.trace);
            for (n, snap) in sb.nodes.iter_mut().zip(&d.nodes) {
                n.fsm.restore(snap);
            }
        }
        for (f, d) in self.fifos.iter_mut().zip(&dump.fifos) {
            if d.words.len() != f.words.len() {
                return Err(CheckpointError::SpecMismatch);
            }
            f.occ = d.occ;
            f.words.clone_from(&d.words);
            f.pending.clone_from(&d.pending);
            f.pushes = d.pushes;
            f.pops = d.pops;
            f.overruns = d.overruns;
            f.underruns = d.underruns;
        }
        for (c, &(phase, posedge)) in self.clk.iter_mut().zip(&dump.clk) {
            c.phase = phase;
            c.posedge = posedge;
        }
        self.heap.clear();
        for ev in &dump.heap {
            let kind = match ev.kind {
                0 => EvKind::Push {
                    ch: ev.a,
                    word: ev.b,
                },
                1 => EvKind::Pop { ch: ev.a },
                2 => EvKind::Move {
                    ch: ev.a,
                    stage: ev.b as u32,
                },
                3 => EvKind::Token {
                    sb: ev.a,
                    node: ev.b as u32,
                },
                4 => EvKind::Clken {
                    sb: ev.a,
                    ena: ev.b != 0,
                },
                _ => return Err(CheckpointError::SpecMismatch),
            };
            self.heap.push(Reverse(Ev {
                time: ev.time,
                seq: ev.seq,
                kind,
            }));
        }
        match (
            &dump.jitter,
            self.chaos.as_mut().and_then(|c| c.jitter.as_mut()),
        ) {
            (None, None) => {}
            (Some(bytes), Some(j)) => {
                if !j.restore_occ(bytes) {
                    return Err(CheckpointError::SpecMismatch);
                }
            }
            _ => return Err(CheckpointError::SpecMismatch),
        }
        match (
            &dump.injector,
            self.chaos.as_mut().and_then(|c| c.injector.as_mut()),
        ) {
            (None, None) => {}
            (Some((tok, push, ack)), Some(i)) => {
                if !i.restore_counters(tok, push, ack) {
                    return Err(CheckpointError::SpecMismatch);
                }
            }
            _ => return Err(CheckpointError::SpecMismatch),
        }
        self.now = dump.now;
        self.seq = dump.seq;
        self.events = dump.events;
        Ok(())
    }
}

/// A built system behind either backend, with the common accessor
/// surface delegated. Campaign harnesses and the shmoo runner operate
/// on this so experiments pick the compiled fast path up transparently.
/// (A campaign holds a handful of these at a time, so the variant size
/// gap is not worth an indirection on every accessor.)
#[allow(clippy::large_enum_variant)]
pub enum AnySystem {
    /// The general event-kernel backend.
    Event(System),
    /// The flat typed-event backend.
    Compiled(CompiledSystem),
    /// The event-kernel backend, reached by silent fallback from a
    /// [`Backend::Compiled`] request (behaviourally identical to
    /// `Event`; kept distinct so tests can detect an unexercised fast
    /// path through [`AnySystem::backend_kind`]).
    EventFallback(System),
}

impl std::fmt::Debug for AnySystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnySystem::Event(s) | AnySystem::EventFallback(s) => s.fmt(f),
            AnySystem::Compiled(s) => s.fmt(f),
        }
    }
}

impl From<System> for AnySystem {
    fn from(sys: System) -> Self {
        AnySystem::Event(sys)
    }
}

impl From<CompiledSystem> for AnySystem {
    fn from(sys: CompiledSystem) -> Self {
        AnySystem::Compiled(sys)
    }
}

macro_rules! delegate {
    ($self:ident, $sys:ident => $e:expr) => {
        match $self {
            AnySystem::Event($sys) | AnySystem::EventFallback($sys) => $e,
            AnySystem::Compiled($sys) => $e,
        }
    };
}

impl AnySystem {
    /// Which backend is executing this system. A fallback out of the
    /// compiled envelope reports [`Backend::Event`] (it *is* the event
    /// engine); use [`backend_kind`](Self::backend_kind) to tell the
    /// two apart.
    pub fn backend(&self) -> Backend {
        match self {
            AnySystem::Event(_) | AnySystem::EventFallback(_) => Backend::Event,
            AnySystem::Compiled(_) => Backend::Compiled,
        }
    }

    /// Which engine actually runs, distinguishing a requested event
    /// build from a silent fallback. Differential suites assert
    /// [`BackendKind::Compiled`] so they never end up comparing the
    /// event backend against itself.
    pub fn backend_kind(&self) -> BackendKind {
        match self {
            AnySystem::Event(_) => BackendKind::Event,
            AnySystem::Compiled(_) => BackendKind::Compiled,
            AnySystem::EventFallback(_) => BackendKind::EventFallback,
        }
    }

    /// The specification this system was built from.
    pub fn spec(&self) -> &SystemSpec {
        delegate!(self, s => s.spec())
    }

    /// Runs for a span of simulated time.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors (combinational loops) from the event
    /// backend; the compiled backend never fails.
    pub fn run_for(&mut self, span: SimDuration) -> Result<RunSummary, SimError> {
        delegate!(self, s => s.run_for(span))
    }

    /// Runs until every SB has executed at least `cycles` local cycles,
    /// deadlock is detected, or `max_time` of simulated time elapses.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors (combinational loops) from the event
    /// backend; the compiled backend never fails.
    pub fn run_until_cycles(
        &mut self,
        cycles: u64,
        max_time: SimDuration,
    ) -> Result<RunOutcome, SimError> {
        delegate!(self, s => s.run_until_cycles(cycles, max_time))
    }

    /// A verdict run (see [`System::run_to_verdict`]): the outcome and
    /// traces of [`run_until_cycles`](Self::run_until_cycles), with an
    /// unspecified end state.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors (combinational loops) from the event
    /// backend; the compiled backend never fails.
    pub fn run_to_verdict(
        &mut self,
        cycles: u64,
        max_time: SimDuration,
    ) -> Result<RunOutcome, SimError> {
        delegate!(self, s => s.run_to_verdict(cycles, max_time))
    }

    /// Local cycles elapsed in `sb`.
    pub fn cycles(&self, sb: SbId) -> u64 {
        delegate!(self, s => s.cycles(sb))
    }

    /// The I/O trace of `sb`.
    pub fn io_trace(&self, sb: SbId) -> &SbIoTrace {
        delegate!(self, s => s.io_trace(sb))
    }

    /// The final state of `sb`'s logic, downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the logic attached to `sb` is not a `T`.
    pub fn logic<T: SyncLogic>(&self, sb: SbId) -> &T {
        delegate!(self, s => s.logic(sb))
    }

    /// Mutable access to `sb`'s logic.
    ///
    /// # Panics
    ///
    /// Panics if the logic attached to `sb` is not a `T`.
    pub fn logic_mut<T: SyncLogic>(&mut self, sb: SbId) -> &mut T {
        delegate!(self, s => s.logic_mut(sb))
    }

    /// The node FSM of `sb` on `ring`, if it has one.
    pub fn node(&self, sb: SbId, ring: RingId) -> Option<&NodeFsm> {
        delegate!(self, s => s.node(sb, ring))
    }

    /// Mutable node access (debug hooks, SEU injection).
    pub fn node_mut(&mut self, sb: SbId, ring: RingId) -> Option<&mut NodeFsm> {
        delegate!(self, s => s.node_mut(sb, ring))
    }

    /// SBs whose clocks are currently parked.
    pub fn stopped_sbs(&self) -> Vec<SbId> {
        delegate!(self, s => s.stopped_sbs())
    }

    /// Clock statistics: (rising edges, synchronous stops) of `sb`.
    pub fn clock_stats(&self, sb: SbId) -> (u64, u64) {
        delegate!(self, s => s.clock_stats(sb))
    }

    /// FIFO statistics for `channel`: (pushes, pops, overruns, underruns).
    pub fn fifo_stats(&self, channel: ChannelId) -> (u64, u64, u64, u64) {
        delegate!(self, s => s.fifo_stats(channel))
    }

    /// Words the logic of `sb` attempted to send on blocked channels.
    pub fn dropped_words(&self, sb: SbId) -> u64 {
        delegate!(self, s => s.dropped_words(sb))
    }

    /// Bypass-mode metastable samples taken in `sb`'s wrapper.
    pub fn metastable_samples(&self, sb: SbId) -> u64 {
        delegate!(self, s => s.metastable_samples(sb))
    }

    /// Setup-time violations taken by `sb`.
    pub fn timing_violations(&self, sb: SbId) -> u64 {
        delegate!(self, s => s.timing_violations(sb))
    }

    /// Wall-clock times of `sb`'s rising edges.
    pub fn edge_times(&self, sb: SbId) -> &[SimTime] {
        delegate!(self, s => s.edge_times(sb))
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        delegate!(self, s => s.now())
    }

    /// Events fired so far (kernel events or compiled typed events —
    /// machine-local work counters, not comparable across backends).
    pub fn events_fired(&self) -> u64 {
        match self {
            AnySystem::Event(s) | AnySystem::EventFallback(s) => s.sim().events_fired(),
            AnySystem::Compiled(s) => s.events_processed(),
        }
    }

    /// Wakes delivered so far (each compiled event wakes one handler).
    pub fn wakes_delivered(&self) -> u64 {
        match self {
            AnySystem::Event(s) | AnySystem::EventFallback(s) => s.sim().wakes_delivered(),
            AnySystem::Compiled(s) => s.events_processed(),
        }
    }

    /// The configuration content key this system (and its checkpoints)
    /// are bound to.
    pub fn spec_hash(&self) -> [u8; 16] {
        delegate!(self, s => s.spec_hash())
    }

    /// Freezes the complete engine state into a canonical
    /// [`Checkpoint`] (tagged with whichever backend is running).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Unsupported`] outside the checkpointable
    /// envelope (see [`System::checkpoint`] and
    /// [`CompiledSystem::checkpoint`]).
    pub fn checkpoint(&self) -> Result<Checkpoint, CheckpointError> {
        delegate!(self, s => s.checkpoint())
    }

    /// Reconstructs a running system from `checkpoint` behind whichever
    /// backend produced it (checkpoints never cross backends), using a
    /// builder configured identically to the originating one.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Unsupported`] when a compiled checkpoint meets
    /// a builder outside the compiled envelope,
    /// [`CheckpointError::SpecMismatch`] when the builder differs from
    /// the originating configuration, [`CheckpointError::Corrupt`] for
    /// malformed payload bytes.
    pub fn resume(
        builder: SystemBuilder,
        checkpoint: &Checkpoint,
    ) -> Result<AnySystem, CheckpointError> {
        match checkpoint.backend() {
            CheckpointBackend::Event => System::resume(builder, checkpoint).map(AnySystem::Event),
            CheckpointBackend::Compiled => {
                CompiledSystem::resume(builder, checkpoint).map(AnySystem::Compiled)
            }
        }
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
    ) -> Result<AnySystem, CheckpointError> {
        match checkpoint.backend() {
            CheckpointBackend::Event => {
                System::resume_decoded(builder, checkpoint).map(AnySystem::Event)
            }
            CheckpointBackend::Compiled => {
                CompiledSystem::resume_decoded(builder, checkpoint).map(AnySystem::Compiled)
            }
        }
    }

    /// In-place rewind to a checkpointed state, reusing this engine's
    /// allocations — see [`CompiledSystem::restore_decoded`]. Only the
    /// compiled backend supports it; callers holding an event-backed
    /// system fall back to [`resume_decoded`](Self::resume_decoded).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Unsupported`] on an event-backed system,
    /// otherwise as [`CompiledSystem::restore_decoded`].
    pub fn restore_decoded(
        &mut self,
        checkpoint: &DecodedCheckpoint,
    ) -> Result<(), CheckpointError> {
        match self {
            AnySystem::Event(_) | AnySystem::EventFallback(_) => Err(CheckpointError::Unsupported(
                "in-place restore requires the compiled backend",
            )),
            AnySystem::Compiled(sys) => sys.restore_decoded(checkpoint),
        }
    }
}

impl SystemBuilder {
    /// Builds behind the requested backend. [`Backend::Compiled`] falls
    /// back to the event backend when the system is outside the compiled
    /// engine's support envelope (bypass mode, node observability, a
    /// half-period shorter than the bundled-data delay, or a FIFO deeper
    /// than 64 stages), so the result is always behaviourally identical
    /// to [`SystemBuilder::build`].
    pub fn build_backend(self, backend: Backend) -> AnySystem {
        match backend {
            Backend::Event => AnySystem::Event(self.build()),
            Backend::Compiled => match CompiledSystem::lower(self) {
                Ok(sys) => AnySystem::Compiled(sys),
                Err(builder) => AnySystem::EventFallback(builder.build()),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic::{SequenceSource, SinkCollect};
    use crate::spec::NodeParams;

    fn pair_spec() -> SystemSpec {
        let mut s = SystemSpec::default();
        let a = s.add_sb("tx", SimDuration::ns(10));
        let b = s.add_sb("rx", SimDuration::ns(10));
        let r = s.add_ring(a, b, NodeParams::new(4, 12), SimDuration::ns(30));
        s.add_channel(a, b, r, 16, 4, SimDuration::ns(1));
        s
    }

    fn build_pair(backend: Backend) -> AnySystem {
        SystemBuilder::new(pair_spec())
            .expect("valid spec")
            .with_logic(SbId(0), SequenceSource::new(100, 1))
            .with_logic(SbId(1), SinkCollect::new())
            .build_backend(backend)
    }

    #[test]
    fn compiled_backend_is_selected_for_supported_specs() {
        assert_eq!(build_pair(Backend::Compiled).backend(), Backend::Compiled);
        assert_eq!(build_pair(Backend::Event).backend(), Backend::Event);
    }

    #[test]
    fn bypass_mode_falls_back_to_the_event_backend() {
        let sys = SystemBuilder::new(pair_spec())
            .unwrap()
            .bypass(SimDuration::ps(200))
            .build_backend(Backend::Compiled);
        assert_eq!(sys.backend(), Backend::Event);
    }

    #[test]
    fn backend_kind_distinguishes_fallback_from_explicit_event() {
        assert_eq!(
            build_pair(Backend::Compiled).backend_kind(),
            BackendKind::Compiled
        );
        assert_eq!(
            build_pair(Backend::Event).backend_kind(),
            BackendKind::Event
        );
        let fallback = SystemBuilder::new(pair_spec())
            .unwrap()
            .bypass(SimDuration::ps(200))
            .build_backend(Backend::Compiled);
        assert_eq!(fallback.backend_kind(), BackendKind::EventFallback);
        // `backend()` keeps reporting the engine that actually runs.
        assert_eq!(fallback.backend(), Backend::Event);
    }

    #[test]
    fn sub_bundle_periods_fall_back_to_the_event_backend() {
        let mut spec = pair_spec();
        // Half period below the 1 ps bundled-data delay.
        spec.sbs[0].period = SimDuration::fs(1500);
        let sys = SystemBuilder::new(spec)
            .unwrap()
            .build_backend(Backend::Compiled);
        assert_eq!(sys.backend(), Backend::Event);
    }

    #[test]
    fn pair_matches_event_backend_exactly() {
        let mut ev = build_pair(Backend::Event);
        let mut cc = build_pair(Backend::Compiled);
        let a = ev.run_until_cycles(200, SimDuration::us(100)).unwrap();
        let b = cc.run_until_cycles(200, SimDuration::us(100)).unwrap();
        assert_eq!(a, b);
        assert_eq!(ev.now(), cc.now());
        for i in 0..2 {
            let sb = SbId(i);
            assert_eq!(ev.cycles(sb), cc.cycles(sb));
            assert_eq!(ev.io_trace(sb), cc.io_trace(sb));
            assert_eq!(ev.clock_stats(sb), cc.clock_stats(sb));
            assert_eq!(ev.edge_times(sb), cc.edge_times(sb));
        }
        assert_eq!(ev.fifo_stats(ChannelId(0)), cc.fifo_stats(ChannelId(0)));
        let sink_ev: &SinkCollect = ev.logic(SbId(1));
        let sink_cc: &SinkCollect = cc.logic(SbId(1));
        assert_eq!(sink_ev.received, sink_cc.received);
    }

    #[test]
    fn compiled_runs_far_fewer_events_than_the_kernel() {
        let mut ev = build_pair(Backend::Event);
        let mut cc = build_pair(Backend::Compiled);
        ev.run_until_cycles(200, SimDuration::us(100)).unwrap();
        cc.run_until_cycles(200, SimDuration::us(100)).unwrap();
        // The count gap is modest (the big win is per-event work: no
        // signal table, watcher lists, wake dedup or per-edge allocs —
        // see the `system_sim` bench), but the typed engine must at
        // least never do more event-dispatch work than the kernel's
        // events + wakes.
        assert!(
            cc.events_fired() < ev.events_fired(),
            "compiled {} vs kernel {} events",
            cc.events_fired(),
            ev.events_fired()
        );
        assert!(cc.wakes_delivered() < ev.wakes_delivered());
    }
}
