//! The synchro-tokens wrapper (paper Figure 1B) as a simulation component.
//!
//! One [`SbWrapper`] per synchronous block owns:
//!
//! * a [`NodeFsm`] per token ring the SB participates in,
//! * the SB's input/output channel interfaces,
//! * the `clken` output (the AND of all nodes' clock enables) that
//!   controls the SB's stoppable clock,
//! * the user's [`SyncLogic`] and its per-cycle I/O views,
//! * the [`SbIoTrace`] determinism record.
//!
//! A single component orchestrates all of this so that the ordering of
//! intra-edge activity (read interfaces → tick logic → transmit → step
//! nodes) is explicit and deterministic rather than an accident of
//! component scheduling.
//!
//! The wrapper also implements the **bypass mode** used as the paper's
//! nondeterministic baseline: wrapper control is defeated (everything
//! always enabled, the clock never stops) and the FIFO `head_valid` is
//! sampled through a modelled two-flop synchronizer.

use crate::faults::{DataAction, FaultInjector, TokenPassAction};
use crate::iotrace::SbIoTrace;
use crate::logic::{InputView, OutputSlot, SbIo, SyncLogic};
use crate::node::{NodeFsm, NodeFsmSnapshot, TokenAction};
use crate::spec::{ChannelId, RingId, SbId};
use st_channel::FifoPorts;
use st_sim::prelude::*;
use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

/// Delay from driving bundled data to toggling the matching request, and
/// from reading a head word to toggling the acknowledge.
pub(crate) const BUNDLE_DELAY: SimDuration = SimDuration::fs(1000);

/// Placeholder word recorded when bypass mode reads a bus that is not
/// actually carrying valid data (a metastability ghost read).
const GARBAGE_WORD: u64 = 0xDEAD_DEAD_DEAD_DEAD;

/// How the wrapper treats its control machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WrapperMode {
    /// Full synchro-tokens control (deterministic).
    SynchroTokens,
    /// Control defeated: interfaces always enabled, clock never stopped,
    /// inputs sampled through a two-flop synchronizer with the given
    /// metastability window (nondeterministic baseline).
    Bypass {
        /// Setup/hold window of the modelled synchronizer flops.
        window: SimDuration,
    },
}

/// One token-ring node's wiring.
#[derive(Debug)]
pub(crate) struct NodeBinding {
    pub ring: RingId,
    pub fsm: NodeFsm,
    /// Toggle input carrying the incoming token.
    pub token_in: BitSignal,
    prev_token_in: Bit,
    /// The peer node's `token_in`, which this node toggles to pass.
    pub peer_token_in: BitSignal,
    /// Node output delay + ring wire delay to the peer.
    pub pass_delay: SimDuration,
    pass_parity: bool,
    /// True when this node's *outgoing* passes travel toward the ring's
    /// initial holder (i.e. this is the peer-side node). Identifies the
    /// fault-injection unit for token faults.
    pub to_holder: bool,
    /// Optional per-node observability signals (Figure 2 waveforms).
    pub observe: Option<NodeObserve>,
}

impl NodeBinding {
    pub(crate) fn new(
        ring: RingId,
        fsm: NodeFsm,
        token_in: BitSignal,
        peer_token_in: BitSignal,
        pass_delay: SimDuration,
        to_holder: bool,
    ) -> Self {
        NodeBinding {
            ring,
            fsm,
            token_in,
            prev_token_in: Bit::X,
            peer_token_in,
            pass_delay,
            pass_parity: false,
            to_holder,
            observe: None,
        }
    }

    pub(crate) fn with_observe(mut self, observe: NodeObserve) -> Self {
        self.observe = Some(observe);
        self
    }
}

/// Debug/trace signals exposing a node's internals (used to regenerate
/// the paper's Figure 2).
#[derive(Debug, Clone, Copy)]
pub struct NodeObserve {
    /// Interface-enable (`sbena`) level for this node.
    pub sbena: BitSignal,
    /// Hold counter value (driven each cycle).
    pub hold_ctr: WordSignal,
    /// Recycle counter value (driven each cycle).
    pub recycle_ctr: WordSignal,
}

/// An input channel endpoint.
#[derive(Debug)]
pub(crate) struct InputBinding {
    #[allow(dead_code)] // kept for diagnostics and future P1500 hooks
    pub channel: ChannelId,
    /// Index into the wrapper's node list.
    pub node_idx: usize,
    pub ports: FifoPorts,
    ack_parity: bool,
}

impl InputBinding {
    pub(crate) fn new(channel: ChannelId, node_idx: usize, ports: FifoPorts) -> Self {
        InputBinding {
            channel,
            node_idx,
            ports,
            ack_parity: false,
        }
    }
}

/// An output channel endpoint.
#[derive(Debug)]
pub(crate) struct OutputBinding {
    #[allow(dead_code)] // kept for diagnostics and future P1500 hooks
    pub channel: ChannelId,
    pub node_idx: usize,
    pub ports: FifoPorts,
    req_parity: bool,
}

impl OutputBinding {
    pub(crate) fn new(channel: ChannelId, node_idx: usize, ports: FifoPorts) -> Self {
        OutputBinding {
            channel,
            node_idx,
            ports,
            req_parity: false,
        }
    }
}

/// A complete dump of an [`SbWrapper`]'s dynamic state, used by
/// checkpointing. Wiring (signals, ports, delays) is rebuilt from the
/// spec on resume; only values that evolve during simulation appear
/// here.
#[derive(Debug, Clone)]
pub(crate) struct WrapperSnapshot {
    pub prev_clk: Bit,
    pub cycle: u64,
    pub trace: SbIoTrace,
    pub dropped_words: u64,
    pub metastable_samples: u64,
    pub last_edge: Option<SimTime>,
    pub timing_violations: u64,
    pub edge_times: Vec<SimTime>,
    /// Per node: FSM state, last observed `token_in` level, outgoing
    /// pass parity.
    pub nodes: Vec<(NodeFsmSnapshot, Bit, bool)>,
    pub input_ack_parity: Vec<bool>,
    pub output_req_parity: Vec<bool>,
    /// Opaque logic state from [`SyncLogic::save_state`].
    pub logic: Vec<u8>,
}

/// Two-flop synchronizer state for one bypass-mode input.
#[derive(Debug, Default, Clone, Copy)]
struct BypassInput {
    last_valid_change: SimTime,
    stage1: bool,
    stage2: bool,
}

/// The wrapper component. Constructed by
/// [`SystemBuilder`](crate::system::SystemBuilder); inspected after runs
/// through [`System`](crate::system::System) accessors.
pub struct SbWrapper {
    sb: SbId,
    mode: WrapperMode,
    logic: Box<dyn SyncLogic>,
    clk: BitSignal,
    clken: BitSignal,
    prev_clk: Bit,
    cycle: u64,
    nodes: Vec<NodeBinding>,
    inputs: Vec<InputBinding>,
    outputs: Vec<OutputBinding>,
    trace: SbIoTrace,
    bypass_inputs: Vec<BypassInput>,
    /// Words the logic tried to send while the channel could not accept.
    dropped_words: u64,
    /// Bypass-mode samples that fell in the metastability window.
    metastable_samples: u64,
    /// Modelled critical-path delay; cycles shorter than this corrupt
    /// the block's outputs (deterministically).
    logic_delay: SimDuration,
    /// Wall-clock instant of the previous rising edge.
    last_edge: Option<SimTime>,
    /// Setup violations taken (cycle shorter than `logic_delay`).
    timing_violations: u64,
    /// Wall-clock time of each rising edge (capped like the I/O trace);
    /// pairs with trace rows to time-stamp transmitted/received words.
    edge_times: Vec<SimTime>,
    edge_times_cap: usize,
    /// Protocol-layer fault injector, shared by every wrapper of the
    /// system so occurrence counters are global per unit.
    faults: Option<Rc<RefCell<FaultInjector>>>,
    // Per-edge scratch, reused so the steady state allocates nothing.
    views: Vec<InputView>,
    slots: Vec<OutputSlot>,
    pops: Vec<bool>,
}

impl std::fmt::Debug for SbWrapper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SbWrapper")
            .field("sb", &self.sb)
            .field("mode", &self.mode)
            .field("cycle", &self.cycle)
            .field("nodes", &self.nodes.len())
            .field("inputs", &self.inputs.len())
            .field("outputs", &self.outputs.len())
            .finish()
    }
}

impl SbWrapper {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        sb: SbId,
        mode: WrapperMode,
        logic: Box<dyn SyncLogic>,
        clk: BitSignal,
        clken: BitSignal,
        nodes: Vec<NodeBinding>,
        inputs: Vec<InputBinding>,
        outputs: Vec<OutputBinding>,
        trace_limit: usize,
    ) -> Self {
        let (n_inputs, n_outputs) = (inputs.len(), outputs.len());
        SbWrapper {
            sb,
            mode,
            logic,
            clk,
            clken,
            prev_clk: Bit::X,
            cycle: 0,
            nodes,
            inputs,
            outputs,
            trace: SbIoTrace::with_limit(trace_limit),
            bypass_inputs: vec![BypassInput::default(); n_inputs],
            dropped_words: 0,
            metastable_samples: 0,
            logic_delay: SimDuration::ZERO,
            last_edge: None,
            timing_violations: 0,
            edge_times: Vec::new(),
            edge_times_cap: if trace_limit == 0 {
                1 << 20
            } else {
                trace_limit
            },
            faults: None,
            views: Vec::with_capacity(n_inputs),
            slots: Vec::with_capacity(n_outputs),
            pops: vec![false; n_inputs],
        }
    }

    /// Attaches the system-wide protocol fault injector (builder-time).
    pub(crate) fn with_faults(mut self, faults: Rc<RefCell<FaultInjector>>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Wall-clock times of the recorded rising edges (indexed by local
    /// cycle; capped at the trace limit).
    pub fn edge_times(&self) -> &[SimTime] {
        &self.edge_times
    }

    /// Sets the modelled critical-path delay (builder-time).
    pub(crate) fn with_logic_delay(mut self, delay: SimDuration) -> Self {
        self.logic_delay = delay;
        self
    }

    /// Setup violations taken so far.
    pub fn timing_violations(&self) -> u64 {
        self.timing_violations
    }

    /// The SB this wrapper belongs to.
    pub fn sb(&self) -> SbId {
        self.sb
    }

    /// Local cycles elapsed (rising edges seen).
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// The captured I/O trace.
    pub fn trace(&self) -> &SbIoTrace {
        &self.trace
    }

    /// Words the logic attempted to send on a blocked channel.
    pub fn dropped_words(&self) -> u64 {
        self.dropped_words
    }

    /// Bypass-mode metastable samples taken.
    pub fn metastable_samples(&self) -> u64 {
        self.metastable_samples
    }

    /// The node FSM for `ring`, if this SB has one.
    pub fn node(&self, ring: RingId) -> Option<&NodeFsm> {
        self.nodes.iter().find(|n| n.ring == ring).map(|n| &n.fsm)
    }

    /// Mutable node access (debug hooks).
    pub fn node_mut(&mut self, ring: RingId) -> Option<&mut NodeFsm> {
        self.nodes
            .iter_mut()
            .find(|n| n.ring == ring)
            .map(|n| &mut n.fsm)
    }

    /// Sets the §4.2 indefinite-hold hook on every node of this wrapper.
    pub fn set_hold_all_tokens(&mut self, on: bool) {
        for n in &mut self.nodes {
            n.fsm.set_hold_indefinitely(on);
        }
    }

    /// True when every node currently allows the clock to run.
    pub fn clock_enabled(&self) -> bool {
        self.nodes.iter().all(|n| n.fsm.clock_enabled())
    }

    /// The user logic as `Any`, for downcasting to its concrete type.
    pub fn logic_any(&self) -> &dyn Any {
        let logic: &dyn SyncLogic = self.logic.as_ref();
        logic as &dyn Any
    }

    /// Mutable `Any` access to the user logic (debug state injection).
    pub fn logic_any_mut(&mut self) -> &mut dyn Any {
        let logic: &mut dyn SyncLogic = self.logic.as_mut();
        logic as &mut dyn Any
    }

    /// The shared protocol fault injector, if one is installed.
    pub(crate) fn faults_rc(&self) -> Option<&Rc<RefCell<FaultInjector>>> {
        self.faults.as_ref()
    }

    /// Captures the wrapper's complete dynamic state; `None` when the
    /// attached logic does not implement [`SyncLogic::save_state`].
    pub(crate) fn snapshot(&self) -> Option<WrapperSnapshot> {
        let logic = self.logic.save_state()?;
        Some(WrapperSnapshot {
            prev_clk: self.prev_clk,
            cycle: self.cycle,
            trace: self.trace.clone(),
            dropped_words: self.dropped_words,
            metastable_samples: self.metastable_samples,
            last_edge: self.last_edge,
            timing_violations: self.timing_violations,
            edge_times: self.edge_times.clone(),
            nodes: self
                .nodes
                .iter()
                .map(|n| (n.fsm.snapshot(), n.prev_token_in, n.pass_parity))
                .collect(),
            input_ack_parity: self.inputs.iter().map(|i| i.ack_parity).collect(),
            output_req_parity: self.outputs.iter().map(|o| o.req_parity).collect(),
            logic,
        })
    }

    /// Overwrites dynamic state from a snapshot taken on an identically
    /// built wrapper. Returns `false` on a shape mismatch (different
    /// topology or incompatible logic bytes).
    pub(crate) fn restore(&mut self, snap: &WrapperSnapshot) -> bool {
        if snap.nodes.len() != self.nodes.len()
            || snap.input_ack_parity.len() != self.inputs.len()
            || snap.output_req_parity.len() != self.outputs.len()
            || !self.logic.restore_state(&snap.logic)
        {
            return false;
        }
        self.prev_clk = snap.prev_clk;
        self.cycle = snap.cycle;
        self.trace = snap.trace.clone();
        self.dropped_words = snap.dropped_words;
        self.metastable_samples = snap.metastable_samples;
        self.last_edge = snap.last_edge;
        self.timing_violations = snap.timing_violations;
        self.edge_times = snap.edge_times.clone();
        for (n, (fsm, prev_tok, parity)) in self.nodes.iter_mut().zip(&snap.nodes) {
            n.fsm.restore(fsm);
            n.prev_token_in = *prev_tok;
            n.pass_parity = *parity;
        }
        for (i, p) in self.inputs.iter_mut().zip(&snap.input_ack_parity) {
            i.ack_parity = *p;
        }
        for (o, p) in self.outputs.iter_mut().zip(&snap.output_req_parity) {
            o.req_parity = *p;
        }
        true
    }

    fn is_bypass(&self) -> bool {
        matches!(self.mode, WrapperMode::Bypass { .. })
    }

    fn drive_clken(&self, ctx: &mut Ctx<'_>) {
        let ena = self.is_bypass() || self.clock_enabled();
        ctx.drive_bit(self.clken, ena, SimDuration::ZERO);
    }

    fn drive_observe(&self, ctx: &mut Ctx<'_>) {
        for n in &self.nodes {
            if let Some(obs) = n.observe {
                ctx.drive_bit(obs.sbena, n.fsm.interfaces_enabled(), SimDuration::ZERO);
                ctx.drive_word(obs.hold_ctr, u64::from(n.fsm.hold_ctr()), SimDuration::ZERO);
                ctx.drive_word(
                    obs.recycle_ctr,
                    u64::from(n.fsm.recycle_ctr()),
                    SimDuration::ZERO,
                );
            }
        }
    }

    fn handle_posedge(&mut self, ctx: &mut Ctx<'_>) {
        // 0. Setup-time check against the modelled critical path: a cycle
        // shorter than `logic_delay` corrupts this cycle's outputs. The
        // corruption is a pure function of the data, so it is *visible*
        // to the deterministic trace comparison — exactly what a shmoo
        // run needs to find the failing frequency.
        let violated = match self.last_edge {
            Some(prev) if !self.logic_delay.is_zero() => ctx.now().since(prev) < self.logic_delay,
            _ => false,
        };
        self.last_edge = Some(ctx.now());
        if violated {
            self.timing_violations += 1;
        }
        if self.edge_times.len() < self.edge_times_cap {
            self.edge_times.push(ctx.now());
        }

        // 1. Enable windows for *this* cycle. The node FSMs only advance
        // in step 7, so querying them per interface reads the pre-step
        // state.
        let bypass_window = match self.mode {
            WrapperMode::Bypass { window } => Some(window),
            WrapperMode::SynchroTokens => None,
        };
        let nodes = &self.nodes;
        let enabled =
            |node_idx: usize| bypass_window.is_some() || nodes[node_idx].fsm.interfaces_enabled();

        // 2. Input interfaces: what does each channel present this cycle?
        let (views, pops) = (&mut self.views, &mut self.pops);
        views.clear();
        for (i, inp) in self.inputs.iter().enumerate() {
            let ena = enabled(inp.node_idx);
            pops[i] = false;
            let raw_valid = ctx.bit(inp.ports.head_valid).is_one();
            let view = if let Some(window) = bypass_window {
                // Two-flop synchronizer on `valid`, with a metastability
                // window resolved by the seeded RNG.
                let bp = &mut self.bypass_inputs[i];
                let in_window = ctx.now().saturating_since(bp.last_valid_change) < window;
                let sampled = if in_window {
                    self.metastable_samples += 1;
                    ctx.rng().bool()
                } else {
                    raw_valid
                };
                let visible = bp.stage2;
                bp.stage2 = bp.stage1;
                bp.stage1 = sampled;
                if visible {
                    pops[i] = true;
                    InputView {
                        data: Some(ctx.word(inp.ports.head_data).unwrap_or(GARBAGE_WORD)),
                        enabled: true,
                        empty: false,
                    }
                } else {
                    InputView {
                        data: None,
                        enabled: true,
                        empty: true,
                    }
                }
            } else if ena && raw_valid {
                pops[i] = true;
                InputView {
                    data: Some(
                        ctx.word(inp.ports.head_data)
                            .expect("valid head must carry data"),
                    ),
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
            views.push(view);
        }

        // 3. Output availability.
        let slots = &mut self.slots;
        slots.clear();
        slots.extend(self.outputs.iter().map(|out| OutputSlot {
            can_send: enabled(out.node_idx) && ctx.bit(out.ports.full).is_zero(),
            word: None,
        }));

        // 4. The synchronous logic computes.
        {
            let mut io = SbIo::new(views, slots);
            self.logic.tick(self.cycle, &mut io);
        }

        // 5. Transmit accepted words (bundled data before request).
        let faults = self.faults.as_ref();
        for (out, slot) in self.outputs.iter_mut().zip(&*slots) {
            match slot.word.map(|w| if violated { w ^ 0x5A5A } else { w }) {
                Some(w) if slot.can_send => {
                    let action = faults
                        .map(|f| f.borrow_mut().on_push(out.channel))
                        .unwrap_or(DataAction::Deliver);
                    match action {
                        DataAction::Drop => {
                            // Request toggle lost on the wire: the logic
                            // believes it sent (the trace says so), the
                            // FIFO never sees it.
                        }
                        DataAction::Delay(extra) => {
                            ctx.drive_word(out.ports.put_data, w, extra);
                            out.req_parity = !out.req_parity;
                            ctx.drive_bit(out.ports.put_req, out.req_parity, BUNDLE_DELAY + extra);
                        }
                        DataAction::Deliver => {
                            ctx.drive_word(out.ports.put_data, w, SimDuration::ZERO);
                            out.req_parity = !out.req_parity;
                            ctx.drive_bit(out.ports.put_req, out.req_parity, BUNDLE_DELAY);
                        }
                    }
                }
                Some(_) => self.dropped_words += 1,
                None => {}
            }
        }

        // 6. Acknowledge consumed words.
        for (inp, pop) in self.inputs.iter_mut().zip(&*pops) {
            if *pop {
                let action = faults
                    .map(|f| f.borrow_mut().on_ack(inp.channel))
                    .unwrap_or(DataAction::Deliver);
                match action {
                    DataAction::Drop => {
                        // Acknowledge toggle lost: the FIFO head never
                        // pops, so the same word will be read again.
                    }
                    DataAction::Delay(extra) => {
                        inp.ack_parity = !inp.ack_parity;
                        ctx.drive_bit(inp.ports.get_ack, inp.ack_parity, BUNDLE_DELAY + extra);
                    }
                    DataAction::Deliver => {
                        inp.ack_parity = !inp.ack_parity;
                        ctx.drive_bit(inp.ports.get_ack, inp.ack_parity, BUNDLE_DELAY);
                    }
                }
            }
        }

        // 7. Node FSMs advance; tokens pass; clock enable updates.
        if !self.is_bypass() {
            let mut any_stop = false;
            for n in &mut self.nodes {
                let action = n.fsm.on_posedge();
                if action.pass_token {
                    let pass = faults
                        .map(|f| f.borrow_mut().on_token_pass(n.ring, n.to_holder))
                        .unwrap_or(TokenPassAction::Deliver);
                    match pass {
                        TokenPassAction::Drop => {
                            // Toggle lost on the ring: parity untouched, so
                            // the *next* pass still toggles the wire.
                        }
                        TokenPassAction::Delay(extra) => {
                            n.pass_parity = !n.pass_parity;
                            ctx.drive_bit(n.peer_token_in, n.pass_parity, n.pass_delay + extra);
                        }
                        TokenPassAction::Duplicate(extra) => {
                            // Two toggles = two arrivals at the receiver;
                            // net parity on this side is unchanged.
                            ctx.drive_bit(n.peer_token_in, !n.pass_parity, n.pass_delay);
                            ctx.drive_bit(n.peer_token_in, n.pass_parity, n.pass_delay + extra);
                        }
                        TokenPassAction::Deliver => {
                            n.pass_parity = !n.pass_parity;
                            ctx.drive_bit(n.peer_token_in, n.pass_parity, n.pass_delay);
                        }
                    }
                }
                any_stop |= action.stop_clock;
            }
            if any_stop {
                self.drive_clken(ctx);
            }
        }
        self.drive_observe(ctx);

        // 8. Record the determinism trace row: each output's word if it
        // was transmitted (the logic believes it sent even when a fault
        // drops the request toggle).
        self.trace.record_with(
            self.cycle,
            self.views.iter().map(|v| v.data),
            self.slots.iter().map(|s| s.transmitted(violated)),
        );
        self.cycle += 1;
    }

    fn handle_token(&mut self, ctx: &mut Ctx<'_>, sig: SignalId) {
        let mut restart = false;
        for n in &mut self.nodes {
            if n.token_in.id() != sig {
                continue;
            }
            let v = ctx.bit(n.token_in);
            if v == n.prev_token_in {
                continue;
            }
            n.prev_token_in = v;
            if n.fsm.token_arrived() == TokenAction::RestartClock {
                restart = true;
            }
        }
        if restart {
            self.drive_clken(ctx);
        }
    }
}

impl Component for SbWrapper {
    fn wake(&mut self, ctx: &mut Ctx<'_>, cause: Wake) {
        match cause {
            Wake::Start => {
                self.drive_clken(ctx);
                self.drive_observe(ctx);
            }
            Wake::Signal(sig) if sig == self.clk.id() => {
                let v = ctx.bit(self.clk);
                let rising = !self.prev_clk.is_one() && v.is_one();
                self.prev_clk = v;
                if rising {
                    self.handle_posedge(ctx);
                }
            }
            Wake::Signal(sig) => {
                // Token wires, or (bypass) head_valid edges for the
                // synchronizer's window bookkeeping.
                if self.is_bypass() {
                    for (i, inp) in self.inputs.iter().enumerate() {
                        if inp.ports.head_valid.id() == sig {
                            self.bypass_inputs[i].last_valid_change = ctx.now();
                        }
                    }
                }
                self.handle_token(ctx, sig);
            }
            _ => {}
        }
    }
}
