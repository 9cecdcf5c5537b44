//! Batched lane-parallel backend: N configurations in one engine.
//!
//! Campaigns over synchro-token systems (shmoo grids, chaos sweeps,
//! seed replications) run thousands of *near-identical* configurations.
//! Under the paper's determinism property each configuration's whole
//! behaviour is a pure function of its spec — so two lanes built from
//! the *same* spec make exactly the same control-flow decisions at
//! exactly the same instants, and the event loop, clock machinery, FIFO
//! occupancy evolution and token-ring FSMs only need to run **once**
//! for all of them. [`BatchedSystem`] exploits this with
//! *shared-control lockstep groups*:
//!
//! * **Shared control state** (one copy per group): the typed-event
//!   heap, per-SB clock slots, FIFO occupancy bitmasks and move
//!   cascades, node FSMs, cycle/edge/stop counters, timing-violation
//!   and dropped-word counters. This is the bulk of the scalar
//!   [`CompiledSystem`]'s per-run cost, amortized over every lane.
//! * **Per-lane data columns**: FIFO words (`Vec<u64>` stage-major
//!   columns), the `SyncLogic` instances, and the `SbIoTrace` rows.
//!   In-flight `Push` events carry one word per lane.
//!
//! # Group formation and divergence
//!
//! Lanes are grouped at build time by *full spec equality* (plus trace
//! limit), capped at a configurable lane count; lanes carrying a fault
//! plan start as singleton groups (their jitter perturbs event timing
//! immediately, so they share nothing). Within a group the only way
//! per-lane data can influence control flow is through the logic's
//! *send decision* on a rising edge — whether each output slot was
//! filled, against each slot's `can_send`. The engine detects this at
//! the tick: it partitions lanes by their `(word written, can_send)`
//! pattern, and on the first disagreement **splits the group** —
//! control state is cloned per partition, per-lane columns are
//! redistributed, and each subgroup finishes the rising edge with its
//! own (now uniform) pattern and runs on independently. Splitting is
//! permanent and exact: a split lane's observable behaviour is
//! byte-identical to its scalar run from the first divergent edge
//! onward, because the cloned control state *is* the scalar state.
//!
//! # Equivalence
//!
//! Every lane is **observationally byte-identical** to the scalar
//! [`CompiledSystem`] run of its builder (which is itself
//! byte-identical to the event backend): I/O trace rows, cycle counts,
//! edge times, clock/FIFO statistics, end times, outcomes, and even
//! the processed-event counts match exactly. `tests/batched_equiv.rs`
//! enforces this differentially under proptest, including adversarial
//! divergence schedules and per-lane fault plans.
//!
//! # Support envelope
//!
//! The scalar compiled envelope ([`CompiledSystem`]'s `supports`),
//! plus: at most 32 output channels per SB (the divergence pattern
//! packs two bits per output into a `u64`). [`BatchedSystem::build`]
//! hands the builders back untouched when any lane is unsupported, so
//! callers fall back to scalar backends without rebuilding.

use crate::checkpoint::{
    config_hash, encode_compiled_payload, Checkpoint, CheckpointBackend, CheckpointError,
    CompiledEvDump, CompiledFifoDump, CompiledSbDump, CompiledStateDump,
};
use crate::compiled_system::{
    slot_key, slot_time, ChaosState, ClockSlots, CompiledSystem, SLOT_EMPTY,
};
use crate::drive::{drive, ChunkRule, Drive};
use crate::faults::{DataAction, TokenPassAction};
use crate::iotrace::SbIoTrace;
use crate::logic::{IdleLogic, InputView, OutputSlot, SbIo, SyncLogic};
use crate::node::{NodeFsm, TokenAction};
use crate::spec::{ChannelId, RingId, SbId, SystemSpec};
use crate::system::{RunOutcome, SystemBuilder};
use crate::wrapper::BUNDLE_DELAY;
use st_sim::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::mem;

/// A typed event, batched flavour: identical to the scalar engine's
/// except that a push carries one word per lane (lane-slot order).
#[derive(Debug, Clone)]
enum BEvKind {
    /// Bundled-data words arrive at channel `ch`'s tail, one per lane.
    Push { ch: u32, words: Box<[u64]> },
    /// The consumer's acknowledge arrives at channel `ch`'s head.
    Pop { ch: u32 },
    /// The word in `stage` of channel `ch` attempts to advance.
    Move { ch: u32, stage: u32 },
    /// A token toggle arrives at node `node` of SB `sb`.
    Token { sb: u32, node: u32 },
    /// SB `sb`'s clock enable takes value `ena`.
    Clken { sb: u32, ena: bool },
}

/// Heap entry ordered by `(time, seq)`; seqs are unique so the payload
/// is ignored — the shared seq stream is identical to each lane's
/// scalar stream while the group is in lockstep.
#[derive(Debug, Clone)]
struct BEv {
    time: SimTime,
    seq: u64,
    kind: BEvKind,
}

impl PartialEq for BEv {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for BEv {}
impl PartialOrd for BEv {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for BEv {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

#[inline]
fn sched(heap: &mut BinaryHeap<Reverse<BEv>>, seq: &mut u64, time: SimTime, kind: BEvKind) {
    let s = *seq;
    *seq += 1;
    heap.push(Reverse(BEv { time, seq: s, kind }));
}

/// One token-ring node with its pass destination pre-resolved (the
/// batched twin of the scalar engine's compiled node; control state,
/// so one copy per group).
#[derive(Debug, Clone)]
struct BNode {
    ring: RingId,
    fsm: NodeFsm,
    dest_sb: u32,
    dest_node: u32,
    pass_delay: SimDuration,
    to_holder: bool,
}

/// Per-SB state: shared control scalars plus per-lane columns.
struct BSb {
    half: SimDuration,
    restart_delay: SimDuration,
    logic_delay: SimDuration,
    /// Per-lane synchronous logic (lane-slot order).
    logics: Vec<Box<dyn SyncLogic>>,
    nodes: Vec<BNode>,
    inputs: Vec<(u32, u32)>,
    outputs: Vec<(u32, u32)>,
    clk_high: bool,
    parked: bool,
    clken: bool,
    edges: u64,
    clock_stops: u64,
    cycle: u64,
    /// Per-lane determinism traces (lane-slot order).
    traces: Vec<SbIoTrace>,
    dropped_words: u64,
    timing_violations: u64,
    last_edge: Option<SimTime>,
    edge_times: Vec<SimTime>,
    edge_times_cap: usize,
    // Per-edge scratch, reused so the steady state allocates nothing.
    views: Vec<InputView>,
    slots: Vec<OutputSlot>,
    pops: Vec<bool>,
    /// Per input: `(interfaces enabled, head occupied)` — the shared
    /// shape of this edge's input views.
    shapes: Vec<(bool, bool)>,
    /// Per output: shared `can_send` snapshot.
    can_send: Vec<bool>,
    /// Per popped input: `(input, channel, head stage offset)` into the
    /// channel's lane columns.
    heads: Vec<(usize, usize, usize)>,
}

impl BSb {
    /// A copy of the shared control state with fresh per-lane columns
    /// (the split primitive). Most per-edge scratch comes back empty,
    /// but `pops` is carried over: a divergence split happens *inside*
    /// a rising edge, after the pop decisions were taken but before
    /// `finish_posedge` schedules the input acknowledgments — every
    /// partition must still acknowledge the words its lanes consumed
    /// on the split edge.
    fn control_clone(&self, logics: Vec<Box<dyn SyncLogic>>, traces: Vec<SbIoTrace>) -> BSb {
        BSb {
            half: self.half,
            restart_delay: self.restart_delay,
            logic_delay: self.logic_delay,
            logics,
            nodes: self.nodes.clone(),
            inputs: self.inputs.clone(),
            outputs: self.outputs.clone(),
            clk_high: self.clk_high,
            parked: self.parked,
            clken: self.clken,
            edges: self.edges,
            clock_stops: self.clock_stops,
            cycle: self.cycle,
            traces,
            dropped_words: self.dropped_words,
            timing_violations: self.timing_violations,
            last_edge: self.last_edge,
            edge_times: self.edge_times.clone(),
            edge_times_cap: self.edge_times_cap,
            views: Vec::with_capacity(self.inputs.len()),
            slots: Vec::with_capacity(self.outputs.len()),
            pops: self.pops.clone(),
            shapes: Vec::with_capacity(self.inputs.len()),
            can_send: Vec::with_capacity(self.outputs.len()),
            heads: Vec::with_capacity(self.inputs.len()),
        }
    }
}

/// Per-channel FIFO: shared occupancy/cascade control, per-lane word
/// columns (`words[stage * lanes + slot]`).
#[derive(Debug)]
struct BFifo {
    occ: u64,
    words: Vec<u64>,
    depth: u32,
    stage_delay: SimDuration,
    virtualized: bool,
    pending: Vec<(SimTime, u32)>,
    pushes: u64,
    pops: u64,
    overruns: u64,
    underruns: u64,
}

impl BFifo {
    fn control_clone(&self, words: Vec<u64>) -> BFifo {
        BFifo {
            occ: self.occ,
            words,
            depth: self.depth,
            stage_delay: self.stage_delay,
            virtualized: self.virtualized,
            pending: self.pending.clone(),
            pushes: self.pushes,
            pops: self.pops,
            overruns: self.overruns,
            underruns: self.underruns,
        }
    }

    /// Queues a stage-advance attempt on a virtualized channel (stable
    /// insert by fire time, as in the scalar engine).
    #[inline]
    fn queue_move(&mut self, at: SimTime, stage: u32) {
        if self.pending.last().is_none_or(|&(t, _)| t <= at) {
            self.pending.push((at, stage));
        } else {
            let pos = self.pending.partition_point(|&(t, _)| t <= at);
            self.pending.insert(pos, (at, stage));
        }
    }

    /// Applies every pending stage advance with fire time `<= upto`,
    /// counting each application like a dispatched event.
    fn drain(&mut self, upto: SimTime, events: &mut u64, lanes: usize) {
        let mut i = 0;
        while let Some(&(at, stage)) = self.pending.get(i) {
            if at > upto {
                break;
            }
            i += 1;
            self.apply_move(at, stage as usize, lanes);
        }
        if i > 0 {
            *events += i as u64;
            self.pending.drain(..i);
        }
    }

    /// One stage-advance attempt on a virtualized channel; the word
    /// copy moves the whole lane column.
    fn apply_move(&mut self, now: SimTime, stage: usize, lanes: usize) {
        let bit = 1u64 << stage;
        if self.occ & bit == 0 {
            return; // Stale movement.
        }
        if self.occ & (bit << 1) != 0 {
            return; // Blocked; a later pop/advance requeues.
        }
        self.occ ^= bit | (bit << 1);
        self.words
            .copy_within(stage * lanes..(stage + 1) * lanes, (stage + 1) * lanes);
        if stage as u32 + 2 < self.depth {
            self.queue_move(now + self.stage_delay, (stage + 1) as u32);
        }
        if stage > 0 && self.occ & (bit >> 1) != 0 {
            self.queue_move(now + self.stage_delay, (stage - 1) as u32);
        }
    }
}

/// One group driven through [`drive`]; divergence splits are kept with
/// the chunk end they split in.
struct GroupRun<'a> {
    group: &'a mut Group,
    splits: Vec<(Group, SimTime)>,
}

impl Drive for GroupRun<'_> {
    fn now(&self) -> SimTime {
        self.group.now
    }

    fn min_cycles(&self) -> u64 {
        self.group.min_cycles()
    }

    fn run_chunk(&mut self, until: SimTime) -> Result<bool, SimError> {
        let mut fresh = Vec::new();
        let quiescent = self.group.run_until(until, &mut fresh);
        self.splits.extend(fresh.into_iter().map(|g| (g, until)));
        Ok(quiescent)
    }

    fn stopped_sbs(&self) -> Vec<SbId> {
        self.group.stopped_sbs()
    }
}

/// One lockstep group: the scalar compiled engine with per-lane data
/// columns. All control flow (and the `seq` stream) is shared, so it
/// equals every member lane's scalar run while the group holds.
struct Group {
    spec: SystemSpec,
    trace_limit: usize,
    /// Global lane ids, in lane-slot order.
    lanes: Vec<usize>,
    sbs: Vec<BSb>,
    fifos: Vec<BFifo>,
    clk: Vec<ClockSlots>,
    heap: BinaryHeap<Reverse<BEv>>,
    now: SimTime,
    seq: u64,
    events: u64,
    /// Fault-injection mirror — only ever present on singleton groups
    /// (faulted lanes never share control state).
    chaos: Option<Box<ChaosState>>,
    /// Outcome of the latest `run_until_cycles` or `run_to_verdict` drive.
    outcome: Option<RunOutcome>,
    /// Per-edge scratch (lane-major output words), reused so the
    /// steady state allocates nothing.
    scratch_out: Vec<Option<u64>>,
    /// Per-edge scratch (per-lane divergence patterns).
    scratch_pat: Vec<u64>,
}

impl Group {
    /// Lowers one group of spec-identical builders. Mirrors the scalar
    /// `CompiledSystem::lower` exactly, with columns per lane.
    fn lower(mut builders: Vec<SystemBuilder>, lanes: Vec<usize>) -> Group {
        let nl = builders.len();
        debug_assert_eq!(nl, lanes.len());
        let spec = builders[0].spec.clone();
        let trace_limit = builders[0].trace_limit;
        let chaos = if nl == 1 {
            let (rings, channels) = (spec.rings.len(), spec.channels.len());
            builders[0]
                .faults
                .take()
                .and_then(|p| ChaosState::from_plan(p, rings, channels))
        } else {
            debug_assert!(
                builders.iter().all(|b| b.faults.is_none()),
                "faulted lanes must be singleton groups"
            );
            None
        };

        let fifos: Vec<BFifo> = spec
            .channels
            .iter()
            .map(|ch| BFifo {
                occ: 0,
                words: vec![0; ch.fifo_depth * nl],
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
                nodes.push(BNode {
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
            let logics: Vec<Box<dyn SyncLogic>> = builders
                .iter_mut()
                .map(|b| {
                    b.logics
                        .remove(&i)
                        .unwrap_or_else(|| Box::new(IdleLogic) as Box<dyn SyncLogic>)
                })
                .collect();
            let (n_inputs, n_outputs) = (inputs.len(), outputs.len());
            let traces = (0..nl)
                .map(|_| SbIoTrace::with_limit(trace_limit))
                .collect();
            sbs.push(BSb {
                half,
                restart_delay: half / 10,
                logic_delay: sb_spec.logic_delay,
                logics,
                nodes,
                inputs,
                outputs,
                clk_high: false,
                parked: false,
                clken: true,
                edges: 0,
                clock_stops: 0,
                cycle: 0,
                traces,
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
                shapes: Vec::with_capacity(n_inputs),
                can_send: Vec::with_capacity(n_outputs),
                heads: Vec::with_capacity(n_inputs),
            });
        }

        let n_sbs = sbs.len();
        let mut g = Group {
            spec,
            trace_limit,
            lanes,
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
            outcome: None,
            scratch_out: Vec::new(),
            scratch_pat: Vec::new(),
        };
        for i in 0..n_sbs {
            g.clk[i].phase = slot_key(SimTime::ZERO + g.sbs[i].half, g.seq);
            g.seq += 1;
        }
        g
    }

    fn min_cycles(&self) -> u64 {
        self.sbs.iter().map(|s| s.cycle).min().unwrap_or(0)
    }

    fn stopped_sbs(&self) -> Vec<SbId> {
        self.sbs
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parked)
            .map(|(i, _)| SbId(i))
            .collect()
    }

    /// The dispatch loop, a verbatim port of the scalar engine's
    /// `run_until` (same slot scan, same settle, same quiescence rule).
    /// Divergence splits append fully-formed subgroups to `splits`;
    /// this group keeps the first partition and keeps running.
    fn run_until(&mut self, deadline: SimTime, splits: &mut Vec<Group>) -> bool {
        let mut quiescent = false;
        let deadline_fs = deadline.as_fs();
        loop {
            let mut best = SLOT_EMPTY;
            let mut src_sb = usize::MAX;
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
                Some(Reverse(ev)) => {
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
                    BEvKind::Push { ch, words } => self.on_push(ch as usize, &words),
                    BEvKind::Pop { ch } => self.on_pop(ch as usize),
                    BEvKind::Move { ch, stage } => self.on_move(ch as usize, stage as usize),
                    BEvKind::Token { sb, node } => self.on_token(sb as usize, node as usize),
                    BEvKind::Clken { sb, ena } => self.on_clken(sb as usize, ena),
                }
            } else if is_posedge {
                self.clk[src_sb].posedge = SLOT_EMPTY;
                self.on_posedge(src_sb, splits);
            } else {
                self.clk[src_sb].phase = SLOT_EMPTY;
                self.on_phase(src_sb);
            }
        }
        let nl = self.lanes.len();
        for f in &mut self.fifos {
            if !f.pending.is_empty() {
                f.drain(deadline, &mut self.events, nl);
                if !f.pending.is_empty() {
                    quiescent = false;
                }
            }
        }
        if self.now < deadline {
            self.now = deadline;
        }
        quiescent
    }

    // --- event handlers (ports of the scalar engine's) ------------------

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
            return;
        }
        if sb.clk_high {
            sb.clk_high = false;
            clk[sbi].phase = slot_key(now + sb.half, *seq);
            *seq += 1;
        } else if sb.clken {
            sb.clk_high = true;
            sb.edges += 1;
            let j = match chaos.as_deref_mut() {
                Some(c) => c.clk_jitter(sbi as u32),
                None => SimDuration::ZERO,
            };
            clk[sbi].posedge = slot_key(now + j, *seq);
            *seq += 1;
            clk[sbi].phase = slot_key(now + sb.half, *seq);
            *seq += 1;
        } else {
            sb.parked = true;
            sb.clock_stops += 1;
        }
    }

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
                BEvKind::Clken {
                    sb: sbi as u32,
                    ena,
                },
            );
        }
    }

    fn on_push(&mut self, chi: usize, words: &[u64]) {
        let now = self.now;
        let nl = self.lanes.len();
        let Self {
            fifos,
            heap,
            seq,
            events,
            ..
        } = self;
        let f = &mut fifos[chi];
        if f.virtualized {
            f.drain(now, events, nl);
        }
        if f.occ & 1 != 0 {
            f.overruns += 1;
            return;
        }
        f.occ |= 1;
        f.words[..nl].copy_from_slice(words);
        f.pushes += 1;
        if f.depth > 1 {
            if f.virtualized {
                f.queue_move(now + f.stage_delay, 0);
            } else {
                sched(
                    heap,
                    seq,
                    now + f.stage_delay,
                    BEvKind::Move {
                        ch: chi as u32,
                        stage: 0,
                    },
                );
            }
        }
    }

    fn on_pop(&mut self, chi: usize) {
        let now = self.now;
        let nl = self.lanes.len();
        let Self {
            fifos,
            heap,
            seq,
            events,
            ..
        } = self;
        let f = &mut fifos[chi];
        if f.virtualized {
            f.drain(now, events, nl);
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
            if f.virtualized {
                f.queue_move(now + f.stage_delay, (head - 1) as u32);
            } else {
                sched(
                    heap,
                    seq,
                    now + f.stage_delay,
                    BEvKind::Move {
                        ch: chi as u32,
                        stage: (head - 1) as u32,
                    },
                );
            }
        }
    }

    fn on_move(&mut self, chi: usize, stage: usize) {
        let now = self.now;
        let nl = self.lanes.len();
        let Self {
            fifos, heap, seq, ..
        } = self;
        let f = &mut fifos[chi];
        let bit = 1u64 << stage;
        if f.occ & bit == 0 {
            return; // Stale movement.
        }
        if f.occ & (bit << 1) != 0 {
            return; // Blocked; a later pop/advance reschedules.
        }
        f.occ ^= bit | (bit << 1);
        f.words
            .copy_within(stage * nl..(stage + 1) * nl, (stage + 1) * nl);
        let head = (f.depth - 1) as usize;
        if stage + 1 < head {
            sched(
                heap,
                seq,
                now + f.stage_delay,
                BEvKind::Move {
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
                BEvKind::Move {
                    ch: chi as u32,
                    stage: (stage - 1) as u32,
                },
            );
        }
    }

    /// Rising edge: steps 0–3 are shared control, step 4 ticks every
    /// lane's logic and compares send patterns, steps 5–8 finish per
    /// (possibly split) group.
    fn on_posedge(&mut self, sbi: usize, splits: &mut Vec<Group>) {
        let now = self.now;
        let nl = self.lanes.len();
        let violated;
        {
            let Self {
                sbs, fifos, events, ..
            } = self;
            let sb = &mut sbs[sbi];

            // 0. Setup-time check against the modelled critical path.
            violated = match sb.last_edge {
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

            // 1–2. Input interface shapes, shared across lanes (the
            // occupancy bitmask and node FSMs are control state).
            sb.shapes.clear();
            sb.pops.iter_mut().for_each(|p| *p = false);
            for (i, &(ch, node_idx)) in sb.inputs.iter().enumerate() {
                let ena = sb.nodes[node_idx as usize].fsm.interfaces_enabled();
                let f = &mut fifos[ch as usize];
                if f.virtualized {
                    f.drain(now, events, nl);
                }
                let head_occ = f.occ & (1u64 << (f.depth - 1)) != 0;
                if ena && head_occ {
                    sb.pops[i] = true;
                }
                sb.shapes.push((ena, head_occ));
            }

            // 3. Output availability, shared.
            sb.can_send.clear();
            for &(ch, node_idx) in &sb.outputs {
                let f = &mut fifos[ch as usize];
                if f.virtualized {
                    f.drain(now, events, nl);
                }
                sb.can_send
                    .push(sb.nodes[node_idx as usize].fsm.interfaces_enabled() && f.occ & 1 == 0);
            }
        }

        // 4. Every lane's logic computes against its own data columns.
        // Views and slots are built once per edge from the shared
        // shapes; per lane only the popped input words and the output
        // words change. The determinism trace rows are recorded here
        // too, while the words are at hand — each lane logs its own
        // `(sent, can_send)` outcome, which is exactly what its scalar
        // run would log, so recording before any divergence split is
        // byte-identical.
        let n_out = self.sbs[sbi].outputs.len();
        let mut lane_out = mem::take(&mut self.scratch_out);
        lane_out.clear();
        lane_out.resize(nl * n_out, None);
        let mut patterns = mem::take(&mut self.scratch_pat);
        patterns.clear();
        {
            let Self { sbs, fifos, .. } = self;
            let sb = &mut sbs[sbi];
            let cycle = sb.cycle;
            sb.views.clear();
            for (i, _) in sb.inputs.iter().enumerate() {
                let (ena, _) = sb.shapes[i];
                sb.views.push(if sb.pops[i] {
                    InputView {
                        data: None, // patched per lane below
                        enabled: true,
                        empty: false,
                    }
                } else {
                    InputView {
                        data: None,
                        enabled: ena,
                        empty: ena,
                    }
                });
            }
            sb.slots.clear();
            for k in 0..n_out {
                sb.slots.push(OutputSlot {
                    can_send: sb.can_send[k],
                    word: None,
                });
            }
            // Pre-resolve the popped inputs' head columns once per
            // edge; the lane loop then reads straight out of them.
            sb.heads.clear();
            for (i, &(ch, _)) in sb.inputs.iter().enumerate() {
                if sb.pops[i] {
                    let head = (fifos[ch as usize].depth - 1) as usize;
                    sb.heads.push((i, ch as usize, head * nl));
                }
            }
            for slot in 0..nl {
                for &(i, ch, head) in &sb.heads {
                    sb.views[i].data = Some(fifos[ch].words[head + slot]);
                }
                for k in 0..n_out {
                    sb.slots[k].can_send = sb.can_send[k];
                    sb.slots[k].word = None;
                }
                {
                    let logic = &mut sb.logics[slot];
                    let mut io = SbIo::new(&sb.views, &mut sb.slots);
                    logic.tick(cycle, &mut io);
                }
                let mut pat = 0u64;
                for k in 0..n_out {
                    if sb.slots[k].word.is_some() {
                        pat |= 1 << (2 * k);
                    }
                    if sb.slots[k].can_send {
                        pat |= 1 << (2 * k + 1);
                    }
                    lane_out[slot * n_out + k] = sb.slots[k].word;
                }
                patterns.push(pat);
                sb.traces[slot].record_with(
                    cycle,
                    sb.views.iter().map(|v| v.data),
                    sb.slots.iter().map(|s| s.transmitted(violated)),
                );
            }
        }

        // Divergence check: identical patterns keep the lockstep.
        if patterns.windows(2).all(|w| w[0] == w[1]) {
            let pat = patterns.first().copied().unwrap_or(0);
            self.finish_posedge(sbi, violated, &lane_out, pat);
            self.scratch_out = lane_out;
            self.scratch_pat = patterns;
            return;
        }

        // Split: partition lane slots by pattern, in first-appearance
        // order (deterministic in lane order).
        let mut order: Vec<u64> = Vec::new();
        let mut parts: Vec<Vec<usize>> = Vec::new();
        for (slot, &p) in patterns.iter().enumerate() {
            match order.iter().position(|&q| q == p) {
                Some(i) => parts[i].push(slot),
                None => {
                    order.push(p);
                    parts.push(vec![slot]);
                }
            }
        }
        let children = self.partition_into(&parts);
        let part_out = |part: &[usize]| -> Vec<Option<u64>> {
            part.iter()
                .flat_map(|&s| lane_out[s * n_out..(s + 1) * n_out].iter().copied())
                .collect()
        };
        self.finish_posedge(sbi, violated, &part_out(&parts[0]), order[0]);
        for (ci, mut child) in children.into_iter().enumerate() {
            child.finish_posedge(sbi, violated, &part_out(&parts[ci + 1]), order[ci + 1]);
            splits.push(child);
        }
        self.scratch_out = lane_out;
        self.scratch_pat = patterns;
    }

    /// Steps 5–8 of the rising edge under a uniform send pattern
    /// (2 bits per output: bit `2k` = word written, `2k+1` = can_send).
    fn finish_posedge(
        &mut self,
        sbi: usize,
        violated: bool,
        lane_out: &[Option<u64>],
        pattern: u64,
    ) {
        let now = self.now;
        let nl = self.lanes.len();
        let Self {
            sbs,
            heap,
            seq,
            chaos,
            ..
        } = self;
        let sb = &mut sbs[sbi];
        let n_out = sb.outputs.len();

        // 5. Transmit accepted words: one Push event carries the whole
        // lane column. The chaos mirror only exists on singletons, so
        // its draw sequence matches the scalar engine's exactly.
        for (k, &(ch, _)) in sb.outputs.iter().enumerate() {
            let sent = pattern & (1 << (2 * k)) != 0;
            let can = pattern & (1 << (2 * k + 1)) != 0;
            if sent && can {
                let words: Box<[u64]> = (0..nl)
                    .map(|s| {
                        let w = lane_out[s * n_out + k].expect("pattern bit set");
                        if violated {
                            w ^ 0x5A5A
                        } else {
                            w
                        }
                    })
                    .collect();
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
                            BEvKind::Push { ch, words },
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
                            BEvKind::Push { ch, words },
                        );
                    }
                }
            } else if sent {
                sb.dropped_words += 1;
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
                    DataAction::Drop => {}
                    DataAction::Delay(extra) => {
                        let j = match chaos.as_deref_mut() {
                            Some(c) => c.data_jitter(ch * 2 + 1),
                            None => SimDuration::ZERO,
                        };
                        sched(
                            heap,
                            seq,
                            now + BUNDLE_DELAY + extra + j,
                            BEvKind::Pop { ch },
                        );
                    }
                    DataAction::Deliver => {
                        let j = match chaos.as_deref_mut() {
                            Some(c) => c.data_jitter(ch * 2 + 1),
                            None => SimDuration::ZERO,
                        };
                        sched(heap, seq, now + BUNDLE_DELAY + j, BEvKind::Pop { ch });
                    }
                }
            }
        }

        // 7. Node FSMs advance; tokens pass; clock enable updates.
        let mut any_stop = false;
        for n in &mut sb.nodes {
            let action = n.fsm.on_posedge();
            if action.pass_token {
                let dest = BEvKind::Token {
                    sb: n.dest_sb,
                    node: n.dest_node,
                };
                let unit = (n.ring.0 * 2 + usize::from(n.to_holder)) as u32;
                let pass = match chaos.as_deref_mut() {
                    Some(c) => c.on_token_pass(n.ring, n.to_holder),
                    None => TokenPassAction::Deliver,
                };
                match pass {
                    TokenPassAction::Drop => {}
                    TokenPassAction::Delay(extra) => {
                        let j = match chaos.as_deref_mut() {
                            Some(c) => c.token_jitter(unit),
                            None => SimDuration::ZERO,
                        };
                        sched(heap, seq, now + n.pass_delay + extra + j, dest);
                    }
                    TokenPassAction::Duplicate(extra) => {
                        let (j1, j2) = match chaos.as_deref_mut() {
                            Some(c) => (c.token_jitter(unit), c.token_jitter(unit)),
                            None => (SimDuration::ZERO, SimDuration::ZERO),
                        };
                        sched(heap, seq, now + n.pass_delay + j1, dest.clone());
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
                BEvKind::Clken {
                    sb: sbi as u32,
                    ena,
                },
            );
        }

        // 8. The determinism trace rows were already recorded in step
        // 4 (on_posedge), while the lane words were at hand.
        sb.cycle += 1;
    }

    /// Splits this group's lanes along `parts` (disjoint slot sets in
    /// lane order, covering every slot). The group keeps `parts[0]`;
    /// the rest come back as fully independent groups with cloned
    /// control state and redistributed lane columns.
    fn partition_into(&mut self, parts: &[Vec<usize>]) -> Vec<Group> {
        debug_assert!(
            self.chaos.is_none(),
            "faulted groups are singletons and never split"
        );
        let l_old = self.lanes.len();
        let old_lanes = mem::take(&mut self.lanes);
        let mut logic_pools: Vec<Vec<Option<Box<dyn SyncLogic>>>> = self
            .sbs
            .iter_mut()
            .map(|sb| mem::take(&mut sb.logics).into_iter().map(Some).collect())
            .collect();
        let mut trace_pools: Vec<Vec<Option<SbIoTrace>>> = self
            .sbs
            .iter_mut()
            .map(|sb| mem::take(&mut sb.traces).into_iter().map(Some).collect())
            .collect();
        let old_words: Vec<Vec<u64>> = self
            .fifos
            .iter_mut()
            .map(|f| mem::take(&mut f.words))
            .collect();
        let old_heap: Vec<Reverse<BEv>> = mem::take(&mut self.heap).into_vec();

        let mut groups: Vec<Group> = parts
            .iter()
            .map(|part| {
                let nl = part.len();
                let sbs: Vec<BSb> = self
                    .sbs
                    .iter()
                    .enumerate()
                    .map(|(si, sb)| {
                        sb.control_clone(
                            part.iter()
                                .map(|&s| logic_pools[si][s].take().expect("slot moved once"))
                                .collect(),
                            part.iter()
                                .map(|&s| trace_pools[si][s].take().expect("slot moved once"))
                                .collect(),
                        )
                    })
                    .collect();
                let fifos: Vec<BFifo> = self
                    .fifos
                    .iter()
                    .enumerate()
                    .map(|(fi, f)| {
                        let depth = f.depth as usize;
                        let mut words = Vec::with_capacity(depth * nl);
                        for stage in 0..depth {
                            for &s in part {
                                words.push(old_words[fi][stage * l_old + s]);
                            }
                        }
                        f.control_clone(words)
                    })
                    .collect();
                let heap: BinaryHeap<Reverse<BEv>> = old_heap
                    .iter()
                    .map(|Reverse(ev)| {
                        Reverse(BEv {
                            time: ev.time,
                            seq: ev.seq,
                            kind: match &ev.kind {
                                BEvKind::Push { ch, words } => BEvKind::Push {
                                    ch: *ch,
                                    words: part.iter().map(|&s| words[s]).collect(),
                                },
                                other => other.clone(),
                            },
                        })
                    })
                    .collect();
                Group {
                    spec: self.spec.clone(),
                    trace_limit: self.trace_limit,
                    lanes: part.iter().map(|&s| old_lanes[s]).collect(),
                    sbs,
                    fifos,
                    clk: self.clk.clone(),
                    heap,
                    now: self.now,
                    seq: self.seq,
                    events: self.events,
                    chaos: None,
                    outcome: self.outcome.clone(),
                    scratch_out: Vec::new(),
                    scratch_pat: Vec::new(),
                }
            })
            .collect();
        *self = groups.remove(0);
        groups
    }
}

/// N configurations lowered into shared-control lockstep groups.
///
/// Build with [`BatchedSystem::build`] (or
/// [`build_with_limit`](Self::build_with_limit)); lane indices follow
/// the builder order of the `Vec` passed in. Every accessor takes a
/// lane index first and answers exactly what the scalar
/// [`CompiledSystem`] for that lane's builder would.
pub struct BatchedSystem {
    groups: Vec<Group>,
    /// Lane → (group index, slot within group), kept fresh after every
    /// run/split.
    lane_loc: Vec<(usize, usize)>,
    /// Lane → configuration hash of the builder it was lowered from
    /// (captured at build time, before the builders are consumed), so
    /// extracted checkpoints carry the same `spec_hash` the scalar
    /// engines would stamp.
    lane_hash: Vec<[u8; 16]>,
}

impl std::fmt::Debug for BatchedSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchedSystem")
            .field("lanes", &self.lane_loc.len())
            .field("groups", &self.groups.len())
            .finish()
    }
}

impl BatchedSystem {
    /// Whether a single builder is inside the batched envelope: the
    /// scalar compiled envelope plus ≤ 32 outputs per SB (divergence
    /// patterns pack two bits per output into a `u64`).
    pub fn supports(builder: &SystemBuilder) -> bool {
        CompiledSystem::supports(builder)
            && (0..builder.spec.sbs.len()).all(|i| builder.spec.outputs_of(SbId(i)).count() <= 32)
    }

    /// Lowers the builders into lockstep groups with the environment's
    /// lane cap (`ST_BATCH`, default 64).
    ///
    /// # Errors
    ///
    /// Hands every builder back untouched when the batch is empty or
    /// any lane is outside the support envelope, so callers fall back
    /// to the scalar backends without rebuilding.
    #[allow(clippy::result_large_err)]
    pub fn build(builders: Vec<SystemBuilder>) -> Result<BatchedSystem, Vec<SystemBuilder>> {
        Self::build_with_limit(builders, crate::campaign::batch_limit_from_env())
    }

    /// [`build`](Self::build) with an explicit lane cap per group
    /// (clamped to ≥ 1).
    ///
    /// # Errors
    ///
    /// Hands every builder back untouched when the batch is empty or
    /// any lane is outside the support envelope.
    #[allow(clippy::result_large_err)]
    pub fn build_with_limit(
        builders: Vec<SystemBuilder>,
        max_lanes: usize,
    ) -> Result<BatchedSystem, Vec<SystemBuilder>> {
        if builders.is_empty() || !builders.iter().all(Self::supports) {
            return Err(builders);
        }
        // Before the builders are consumed below: the hash covers the
        // plan, which `Group::lower` takes out of singleton lanes.
        let lane_hash: Vec<[u8; 16]> = builders
            .iter()
            .map(|b| config_hash(&b.spec, b.seed, b.trace_limit, b.faults.as_ref()))
            .collect();
        let max_lanes = max_lanes.max(1);
        // Greedy grouping in lane order: a lane joins the first open
        // group with an identical spec and trace limit; faulted lanes
        // always open a singleton group.
        let mut buckets: Vec<(Vec<SystemBuilder>, Vec<usize>, bool)> = Vec::new();
        for (lane, b) in builders.into_iter().enumerate() {
            let shareable = b.faults.is_none();
            let found = if shareable {
                buckets.iter().position(|(bs, _, open)| {
                    *open
                        && bs.len() < max_lanes
                        && bs[0].spec == b.spec
                        && bs[0].trace_limit == b.trace_limit
                })
            } else {
                None
            };
            match found {
                Some(i) => {
                    buckets[i].0.push(b);
                    buckets[i].1.push(lane);
                }
                None => buckets.push((vec![b], vec![lane], shareable)),
            }
        }
        let groups: Vec<Group> = buckets
            .into_iter()
            .map(|(bs, lanes, _)| Group::lower(bs, lanes))
            .collect();
        let mut sys = BatchedSystem {
            groups,
            lane_loc: Vec::new(),
            lane_hash,
        };
        sys.relocate();
        Ok(sys)
    }

    fn relocate(&mut self) {
        let n: usize = self.groups.iter().map(|g| g.lanes.len()).sum();
        self.lane_loc = vec![(usize::MAX, usize::MAX); n];
        for (gi, g) in self.groups.iter().enumerate() {
            for (slot, &lane) in g.lanes.iter().enumerate() {
                self.lane_loc[lane] = (gi, slot);
            }
        }
    }

    /// Total lanes across all groups.
    pub fn lanes(&self) -> usize {
        self.lane_loc.len()
    }

    /// Current lockstep group count (grows on divergence splits); the
    /// batch occupancy metric is `lanes() / group_count()`.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Runs every lane until it has executed `cycles` local cycles,
    /// deadlocks, or exhausts `max_time` — the scalar
    /// `run_until_cycles` chunk loop, per group, with divergence
    /// splits resuming at the exact chunk boundary the scalar run
    /// would use. Returns one outcome per lane, byte-equal to the
    /// scalar backends' outcomes.
    pub fn run_until_cycles(&mut self, cycles: u64, max_time: SimDuration) -> Vec<RunOutcome> {
        self.drive_lanes(cycles, max_time, false)
    }

    /// A verdict run of every lane (see
    /// [`System::run_to_verdict`](crate::System::run_to_verdict)): the
    /// per-lane outcomes and traces of
    /// [`run_until_cycles`](Self::run_until_cycles), with an
    /// unspecified end state.
    pub fn run_to_verdict(&mut self, cycles: u64, max_time: SimDuration) -> Vec<RunOutcome> {
        self.drive_lanes(cycles, max_time, true)
    }

    fn drive_lanes(
        &mut self,
        cycles: u64,
        max_time: SimDuration,
        verdict: bool,
    ) -> Vec<RunOutcome> {
        struct Work {
            gi: usize,
            rule: ChunkRule,
            deadline: SimTime,
            pending: Option<SimTime>,
        }
        let mut work: Vec<Work> = self
            .groups
            .iter()
            .enumerate()
            .map(|(gi, g)| Work {
                gi,
                rule: ChunkRule::new(&g.spec, cycles, verdict.then_some(g.trace_limit)),
                deadline: g.now + max_time,
                pending: None,
            })
            .collect();
        while let Some(w) = work.pop() {
            let mut run = GroupRun {
                group: &mut self.groups[w.gi],
                splits: Vec::new(),
            };
            let outcome = drive(&mut run, w.rule, w.deadline, w.pending)
                .expect("the batched engine never fails");
            let splits = run.splits;
            self.groups[w.gi].outcome = Some(outcome);
            for (child, until) in splits {
                // A split-off subgroup first finishes the chunk it
                // split in, then continues its own loop under the
                // parent's rule and deadline.
                work.push(Work {
                    gi: self.groups.len(),
                    pending: Some(until),
                    ..w
                });
                self.groups.push(child);
            }
        }
        self.relocate();
        (0..self.lane_loc.len())
            .map(|lane| {
                let (gi, _) = self.lane_loc[lane];
                self.groups[gi]
                    .outcome
                    .clone()
                    .expect("every group was driven")
            })
            .collect()
    }

    #[inline]
    fn at(&self, lane: usize) -> (&Group, usize) {
        let (gi, slot) = self.lane_loc[lane];
        (&self.groups[gi], slot)
    }

    /// The specification lane `lane` was built from.
    pub fn spec(&self, lane: usize) -> &SystemSpec {
        &self.at(lane).0.spec
    }

    /// Local cycles elapsed in `sb` of lane `lane`.
    pub fn cycles(&self, lane: usize, sb: SbId) -> u64 {
        self.at(lane).0.sbs[sb.0].cycle
    }

    /// The I/O trace of `sb` in lane `lane`.
    pub fn io_trace(&self, lane: usize, sb: SbId) -> &SbIoTrace {
        let (g, slot) = self.at(lane);
        &g.sbs[sb.0].traces[slot]
    }

    /// `io_trace(lane, sb).digest()`: O(1), the digest is kept as rows
    /// land.
    pub fn trace_digest(&self, lane: usize, sb: SbId) -> u64 {
        let (g, slot) = self.at(lane);
        g.sbs[sb.0].traces[slot].digest()
    }

    /// The configuration hash of the builder lane `lane` was lowered
    /// from — identical to what the scalar engines compute for the
    /// same builder.
    pub fn spec_hash(&self, lane: usize) -> [u8; 16] {
        self.lane_hash[lane]
    }

    /// Extracts lane `lane`'s complete state as a **compiled-backend**
    /// [`Checkpoint`] — byte-identical to the checkpoint the scalar
    /// [`CompiledSystem`] of the lane's builder would produce at the
    /// same point, because a lockstep group's shared control state *is*
    /// each member lane's scalar state and the per-lane columns carry
    /// the rest. The checkpoint resumes through
    /// [`CompiledSystem::resume`] (or `AnySystem::resume`); there is no
    /// whole-batch checkpoint — lanes fork out of a batch one at a
    /// time, which is exactly the prefix-sharing campaign shape.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Unsupported`] when a logic attached to the
    /// lane does not implement
    /// [`SyncLogic::save_state`](crate::logic::SyncLogic::save_state).
    pub fn checkpoint(&self, lane: usize) -> Result<Checkpoint, CheckpointError> {
        let spec_hash = self.lane_hash[lane];
        let (g, slot) = self.at(lane);
        let nl = g.lanes.len();
        let mut sbs = Vec::with_capacity(g.sbs.len());
        for sb in &g.sbs {
            let logic = sb.logics[slot]
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
                cycle: sb.cycle,
                dropped_words: sb.dropped_words,
                timing_violations: sb.timing_violations,
                last_edge: sb.last_edge,
                edge_times: sb.edge_times.clone(),
                trace: sb.traces[slot].clone(),
                nodes: sb.nodes.iter().map(|n| n.fsm.snapshot()).collect(),
                logic,
            });
        }
        let mut heap: Vec<&BEv> = g.heap.iter().map(|Reverse(ev)| ev).collect();
        heap.sort_unstable_by_key(|ev| (ev.time, ev.seq));
        let heap = heap
            .into_iter()
            .map(|ev| {
                let (kind, a, b) = match &ev.kind {
                    BEvKind::Push { ch, words } => (0, *ch, words[slot]),
                    BEvKind::Pop { ch } => (1, *ch, 0),
                    BEvKind::Move { ch, stage } => (2, *ch, u64::from(*stage)),
                    BEvKind::Token { sb, node } => (3, *sb, u64::from(*node)),
                    BEvKind::Clken { sb, ena } => (4, *sb, u64::from(*ena)),
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
        let (jitter, injector) = match g.chaos.as_ref() {
            Some(c) => c.snapshot_counters(),
            None => (None, None),
        };
        let dump = CompiledStateDump {
            now: g.now,
            seq: g.seq,
            events: g.events,
            clk: g.clk.iter().map(|c| (c.phase, c.posedge)).collect(),
            heap,
            sbs,
            fifos: g
                .fifos
                .iter()
                .map(|f| CompiledFifoDump {
                    occ: f.occ,
                    words: (0..f.depth as usize)
                        .map(|stage| f.words[stage * nl + slot])
                        .collect(),
                    pending: f.pending.clone(),
                    pushes: f.pushes,
                    pops: f.pops,
                    overruns: f.overruns,
                    underruns: f.underruns,
                })
                .collect(),
            jitter,
            injector,
        };
        Ok(Checkpoint::new(
            CheckpointBackend::Compiled,
            spec_hash,
            g.min_cycles(),
            g.now,
            encode_compiled_payload(&dump),
        ))
    }

    /// The final state of lane `lane`'s logic on `sb`, downcast.
    ///
    /// # Panics
    ///
    /// Panics if the logic attached there is not a `T`.
    pub fn logic<T: SyncLogic>(&self, lane: usize, sb: SbId) -> &T {
        let (g, slot) = self.at(lane);
        let logic: &dyn SyncLogic = g.sbs[sb.0].logics[slot].as_ref();
        (logic as &dyn std::any::Any)
            .downcast_ref::<T>()
            .expect("logic type mismatch")
    }

    /// The node FSM of `sb` on `ring` in lane `lane`, if present.
    /// Node FSMs are control state: lanes sharing a group answer
    /// identically (which is exactly why they can share).
    pub fn node(&self, lane: usize, sb: SbId, ring: RingId) -> Option<&NodeFsm> {
        self.at(lane).0.sbs[sb.0]
            .nodes
            .iter()
            .find(|n| n.ring == ring)
            .map(|n| &n.fsm)
    }

    /// Mutable node access for lane `lane` (debug hooks, SEU
    /// injection). Mutating one lane's FSM is control-flow divergence
    /// by definition, so the lane is first split out of its group.
    pub fn node_mut(&mut self, lane: usize, sb: SbId, ring: RingId) -> Option<&mut NodeFsm> {
        self.isolate_lane(lane);
        let (gi, _) = self.lane_loc[lane];
        self.groups[gi].sbs[sb.0]
            .nodes
            .iter_mut()
            .find(|n| n.ring == ring)
            .map(|n| &mut n.fsm)
    }

    /// Splits `lane` into its own singleton group (no-op when it
    /// already is one).
    fn isolate_lane(&mut self, lane: usize) {
        let (gi, slot) = self.lane_loc[lane];
        if self.groups[gi].lanes.len() == 1 {
            return;
        }
        let rest: Vec<usize> = (0..self.groups[gi].lanes.len())
            .filter(|&s| s != slot)
            .collect();
        let parts = vec![rest, vec![slot]];
        let children = self.groups[gi].partition_into(&parts);
        self.groups.extend(children);
        self.relocate();
    }

    /// SBs of lane `lane` whose clocks are currently parked.
    pub fn stopped_sbs(&self, lane: usize) -> Vec<SbId> {
        self.at(lane).0.stopped_sbs()
    }

    /// Clock statistics of `sb` in lane `lane`: (edges, stops).
    pub fn clock_stats(&self, lane: usize, sb: SbId) -> (u64, u64) {
        let s = &self.at(lane).0.sbs[sb.0];
        (s.edges, s.clock_stops)
    }

    /// FIFO statistics of `channel` in lane `lane`:
    /// (pushes, pops, overruns, underruns).
    pub fn fifo_stats(&self, lane: usize, channel: ChannelId) -> (u64, u64, u64, u64) {
        let f = &self.at(lane).0.fifos[channel.0];
        (f.pushes, f.pops, f.overruns, f.underruns)
    }

    /// Words lane `lane`'s logic on `sb` attempted to send on blocked
    /// channels.
    pub fn dropped_words(&self, lane: usize, sb: SbId) -> u64 {
        self.at(lane).0.sbs[sb.0].dropped_words
    }

    /// Setup-time violations taken by `sb` in lane `lane`.
    pub fn timing_violations(&self, lane: usize, sb: SbId) -> u64 {
        self.at(lane).0.sbs[sb.0].timing_violations
    }

    /// Wall-clock times of `sb`'s rising edges in lane `lane`.
    pub fn edge_times(&self, lane: usize, sb: SbId) -> &[SimTime] {
        &self.at(lane).0.sbs[sb.0].edge_times
    }

    /// Lane `lane`'s current simulated time.
    pub fn now(&self, lane: usize) -> SimTime {
        self.at(lane).0.now
    }

    /// Typed events processed on lane `lane`'s behalf — equal to the
    /// scalar compiled engine's count for the same builder (the group
    /// dispatches each shared event once, and it stands for the event
    /// every member lane's scalar run would dispatch).
    pub fn events_processed(&self, lane: usize) -> u64 {
        self.at(lane).0.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled_system::Backend;
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

    fn pair_builder(start: u64) -> SystemBuilder {
        SystemBuilder::new(pair_spec())
            .expect("valid spec")
            .with_logic(SbId(0), SequenceSource::new(start, 1))
            .with_logic(SbId(1), SinkCollect::new())
    }

    #[test]
    fn identical_spec_lanes_share_one_group() {
        let sys =
            BatchedSystem::build_with_limit((0..5).map(|i| pair_builder(100 + i)).collect(), 64)
                .expect("supported");
        assert_eq!(sys.lanes(), 5);
        assert_eq!(sys.group_count(), 1);
    }

    #[test]
    fn lane_cap_splits_groups_at_build() {
        let sys = BatchedSystem::build_with_limit((0..5).map(pair_builder).collect(), 2)
            .expect("supported");
        assert_eq!(sys.group_count(), 3);
    }

    #[test]
    fn unsupported_specs_hand_the_builders_back() {
        let mut spec = pair_spec();
        spec.sbs[0].period = SimDuration::fs(1500); // below the bundle delay
        let b = SystemBuilder::new(spec).unwrap();
        let back = BatchedSystem::build_with_limit(vec![b], 64).expect_err("outside the envelope");
        assert_eq!(back.len(), 1);
        assert!(BatchedSystem::build_with_limit(Vec::new(), 64).is_err());
    }

    #[test]
    fn lanes_match_the_scalar_compiled_backend() {
        let mut batch = BatchedSystem::build_with_limit(
            (0..4).map(|i| pair_builder(100 + 7 * i)).collect(),
            64,
        )
        .expect("supported");
        let outcomes = batch.run_until_cycles(200, SimDuration::us(100));
        for (lane, outcome) in outcomes.iter().enumerate() {
            let mut scalar = pair_builder(100 + 7 * lane as u64).build_backend(Backend::Compiled);
            let scalar_outcome = scalar.run_until_cycles(200, SimDuration::us(100)).unwrap();
            assert_eq!(*outcome, scalar_outcome, "lane {lane}");
            assert_eq!(batch.now(lane), scalar.now(), "lane {lane}");
            for i in 0..2 {
                let sb = SbId(i);
                assert_eq!(batch.cycles(lane, sb), scalar.cycles(sb), "lane {lane}");
                assert_eq!(
                    batch.io_trace(lane, sb),
                    scalar.io_trace(sb),
                    "lane {lane} sb {i}"
                );
                assert_eq!(batch.edge_times(lane, sb), scalar.edge_times(sb));
            }
            assert_eq!(
                batch.fifo_stats(lane, ChannelId(0)),
                scalar.fifo_stats(ChannelId(0))
            );
            assert_eq!(batch.events_processed(lane), scalar.events_fired());
            let sink: &SinkCollect = batch.logic(lane, SbId(1));
            let sink_scalar: &SinkCollect = scalar.logic(SbId(1));
            assert_eq!(sink.received, sink_scalar.received);
        }
    }
}
