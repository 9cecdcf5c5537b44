//! The synchro-tokens wrapper (paper Figure 1B) as a simulation component.
//!
//! One `SbWrapper` per synchronous block owns:
//!
//! * a [`NodeFsm`](crate::node::NodeFsm) per token ring the SB participates in,
//! * the SB's input/output channel interfaces,
//! * the `clken` output (the AND of all nodes' clock enables) that
//!   controls the SB's stoppable clock,
//! * the user's [`SyncLogic`] and its per-cycle I/O views,
//! * the [`SbIoTrace`] determinism record.
//!
//! A single component orchestrates all of this so that the ordering of
//! intra-edge activity (read interfaces → tick logic → transmit → step
//! nodes) is explicit and deterministic rather than an accident of
//! component scheduling. The rising-edge step itself is the
//! `WrapperCore` shared with the compiled engine (`edge.rs`); this
//! component is its event-kernel port, reading and driving kernel
//! signals.
//!
//! The wrapper also implements the **bypass mode** used as the paper's
//! nondeterministic baseline: wrapper control is defeated (everything
//! always enabled, the clock never stops) and the FIFO `head_valid` is
//! sampled through a modelled two-flop synchronizer.

use crate::edge::{EdgePort, WrapperCore};
use crate::faults::{FaultInjector, TokenPassAction};
use crate::iotrace::SbIoTrace;
use crate::logic::{SbIo, SyncLogic};
use crate::node::{NodeFsmSnapshot, TokenAction};
use crate::spec::{ChannelId, SbId, SystemSpec};
use st_channel::FifoPorts;
use st_sim::prelude::*;
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

/// One token-ring node's wires.
#[derive(Debug)]
pub(crate) struct NodeWire {
    /// Toggle input carrying the incoming token.
    pub(crate) token_in: BitSignal,
    /// Last observed `token_in` level.
    pub(crate) prev_token_in: Bit,
    /// The peer node's `token_in`, which this node toggles to pass.
    pub(crate) peer_token_in: BitSignal,
    /// Node output delay + ring wire delay to the peer.
    pub(crate) pass_delay: SimDuration,
    pub(crate) pass_parity: bool,
    /// Optional per-node observability signals (Figure 2 waveforms).
    pub(crate) observe: Option<NodeObserve>,
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

/// A channel endpoint's FIFO ports, its toggle handshake's parity
/// (acknowledge on an input, request on an output) and, on a bypass
/// input, its synchronizer.
#[derive(Debug)]
struct ChannelEnd {
    ports: FifoPorts,
    parity: bool,
    sync: BypassInput,
}

/// A complete dump of an [`SbWrapper`]'s dynamic state, used by
/// checkpointing. Wiring (signals, ports, delays) is rebuilt from the
/// spec on resume; only values that evolve during simulation appear
/// here.
#[derive(Debug, Clone, PartialEq)]
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

/// The event kernel's wires of one SB: the edge step's port.
#[derive(Debug)]
pub(crate) struct Wires {
    clken: BitSignal,
    nodes: Vec<NodeWire>,
    inputs: Vec<ChannelEnd>,
    outputs: Vec<ChannelEnd>,
    /// The bypass synchronizer's metastability window; `None` in
    /// synchro-tokens mode.
    window: Option<SimDuration>,
    /// Bypass-mode samples that fell in the metastability window.
    pub(crate) metastable_samples: u64,
}

/// [`Wires`] with the kernel context of the edge being handled.
struct EventPort<'a, 'c> {
    w: &'a mut Wires,
    ctx: &'a mut Ctx<'c>,
}

impl EdgePort for EventPort<'_, '_> {
    fn head(&mut self, i: usize, _ch: ChannelId) -> Option<u64> {
        let end = &mut self.w.inputs[i];
        let ports = end.ports;
        let valid = self.ctx.bit(ports.head_valid).is_one();
        let Some(window) = self.w.window else {
            return valid.then(|| {
                self.ctx
                    .word(ports.head_data)
                    .expect("valid head must carry data")
            });
        };
        // Two-flop synchronizer on `valid`, with a metastability window
        // resolved by the seeded RNG.
        let bp = &mut end.sync;
        let sampled = if self.ctx.now().saturating_since(bp.last_valid_change) < window {
            self.w.metastable_samples += 1;
            self.ctx.rng().bool()
        } else {
            valid
        };
        let visible = bp.stage2;
        bp.stage2 = bp.stage1;
        bp.stage1 = sampled;
        visible.then(|| self.ctx.word(ports.head_data).unwrap_or(GARBAGE_WORD))
    }

    fn tail_free(&mut self, k: usize, _ch: ChannelId) -> bool {
        self.ctx.bit(self.w.outputs[k].ports.full).is_zero()
    }

    fn push(&mut self, k: usize, _ch: ChannelId, word: u64, extra: SimDuration) {
        let out = &mut self.w.outputs[k];
        // Bundled data before the request.
        self.ctx.drive_word(out.ports.put_data, word, extra);
        out.parity = !out.parity;
        self.ctx
            .drive_bit(out.ports.put_req, out.parity, BUNDLE_DELAY + extra);
    }

    fn ack(&mut self, i: usize, _ch: ChannelId, extra: SimDuration) {
        let inp = &mut self.w.inputs[i];
        inp.parity = !inp.parity;
        self.ctx
            .drive_bit(inp.ports.get_ack, inp.parity, BUNDLE_DELAY + extra);
    }

    fn pass_token(&mut self, node: usize, action: TokenPassAction) {
        let n = &mut self.w.nodes[node];
        let extra = match action {
            // Toggle lost on the ring: parity untouched, so the *next*
            // pass still toggles the wire.
            TokenPassAction::Drop => return,
            TokenPassAction::Duplicate(extra) => {
                // Two toggles = two arrivals at the receiver; net parity
                // on this side is unchanged.
                self.ctx
                    .drive_bit(n.peer_token_in, !n.pass_parity, n.pass_delay);
                self.ctx
                    .drive_bit(n.peer_token_in, n.pass_parity, n.pass_delay + extra);
                return;
            }
            TokenPassAction::Delay(extra) => extra,
            TokenPassAction::Deliver => SimDuration::ZERO,
        };
        n.pass_parity = !n.pass_parity;
        self.ctx
            .drive_bit(n.peer_token_in, n.pass_parity, n.pass_delay + extra);
    }

    fn set_clken(&mut self, ena: bool) {
        self.ctx.drive_bit(self.w.clken, ena, SimDuration::ZERO);
    }
}

/// The wrapper component. Constructed by
/// [`SystemBuilder`](crate::system::SystemBuilder); inspected after runs
/// through [`System`](crate::system::System) accessors.
pub(crate) struct SbWrapper {
    pub(crate) logic: Box<dyn SyncLogic>,
    clk: BitSignal,
    prev_clk: Bit,
    pub(crate) core: WrapperCore,
    pub(crate) wires: Wires,
    pub(crate) trace: SbIoTrace,
    /// Protocol-layer fault injector, shared by every wrapper of the
    /// system so occurrence counters are global per unit.
    faults: Option<Rc<RefCell<FaultInjector>>>,
}

impl SbWrapper {
    /// The wrapper of `sb` in `spec`: `nodes` wires its nodes in
    /// `rings_of` order, `inputs` and `outputs` are its channels' FIFO
    /// ports in channel-id order.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        spec: &SystemSpec,
        sb: SbId,
        mode: WrapperMode,
        logic: Box<dyn SyncLogic>,
        clk: BitSignal,
        clken: BitSignal,
        nodes: Vec<NodeWire>,
        inputs: impl Iterator<Item = FifoPorts>,
        outputs: impl Iterator<Item = FifoPorts>,
        trace_limit: usize,
        faults: Option<Rc<RefCell<FaultInjector>>>,
    ) -> Self {
        let end = |ports| ChannelEnd {
            ports,
            parity: false,
            sync: BypassInput::default(),
        };
        let window = match mode {
            WrapperMode::Bypass { window } => Some(window),
            WrapperMode::SynchroTokens => None,
        };
        SbWrapper {
            logic,
            clk,
            prev_clk: Bit::X,
            core: WrapperCore::new(spec, sb, window.is_some(), trace_limit),
            wires: Wires {
                clken,
                nodes,
                inputs: inputs.map(end).collect(),
                outputs: outputs.map(end).collect(),
                window,
                metastable_samples: 0,
            },
            trace: SbIoTrace::with_limit(trace_limit),
            faults,
        }
    }

    /// Captures the wrapper's complete dynamic state; `None` when the
    /// attached logic does not implement [`SyncLogic::save_state`].
    pub(crate) fn snapshot(&self) -> Option<WrapperSnapshot> {
        let logic = self.logic.save_state()?;
        let (core, w) = (&self.core, &self.wires);
        Some(WrapperSnapshot {
            prev_clk: self.prev_clk,
            cycle: core.cycle,
            trace: self.trace.clone(),
            dropped_words: core.dropped_words,
            metastable_samples: w.metastable_samples,
            last_edge: core.last_edge,
            timing_violations: core.timing_violations,
            edge_times: core.edge_times.clone(),
            nodes: core
                .nodes
                .iter()
                .zip(&w.nodes)
                .map(|(n, wire)| (n.fsm.snapshot(), wire.prev_token_in, wire.pass_parity))
                .collect(),
            input_ack_parity: w.inputs.iter().map(|i| i.parity).collect(),
            output_req_parity: w.outputs.iter().map(|o| o.parity).collect(),
            logic,
        })
    }

    /// Overwrites dynamic state from a snapshot taken on an identically
    /// built wrapper. Returns `false` on a shape mismatch (different
    /// topology or incompatible logic bytes).
    pub(crate) fn restore(&mut self, snap: &WrapperSnapshot) -> bool {
        let (core, w) = (&mut self.core, &mut self.wires);
        if snap.nodes.len() != core.nodes.len()
            || snap.input_ack_parity.len() != w.inputs.len()
            || snap.output_req_parity.len() != w.outputs.len()
            || !self.logic.restore_state(&snap.logic)
        {
            return false;
        }
        self.prev_clk = snap.prev_clk;
        core.cycle = snap.cycle;
        self.trace = snap.trace.clone();
        core.dropped_words = snap.dropped_words;
        w.metastable_samples = snap.metastable_samples;
        core.last_edge = snap.last_edge;
        core.timing_violations = snap.timing_violations;
        core.edge_times = snap.edge_times.clone();
        for ((n, wire), (fsm, prev_tok, parity)) in
            core.nodes.iter_mut().zip(&mut w.nodes).zip(&snap.nodes)
        {
            n.fsm.restore(fsm);
            wire.prev_token_in = *prev_tok;
            wire.pass_parity = *parity;
        }
        for (i, p) in w.inputs.iter_mut().zip(&snap.input_ack_parity) {
            i.parity = *p;
        }
        for (o, p) in w.outputs.iter_mut().zip(&snap.output_req_parity) {
            o.parity = *p;
        }
        true
    }

    fn drive_clken(&self, ctx: &mut Ctx<'_>) {
        let ena = self.wires.window.is_some() || self.core.clock_enabled();
        ctx.drive_bit(self.wires.clken, ena, SimDuration::ZERO);
    }

    fn drive_observe(&self, ctx: &mut Ctx<'_>) {
        for (n, wire) in self.core.nodes.iter().zip(&self.wires.nodes) {
            if let Some(obs) = wire.observe {
                let fsm = &n.fsm;
                ctx.drive_bit(obs.sbena, fsm.interfaces_enabled(), SimDuration::ZERO);
                ctx.drive_word(obs.hold_ctr, u64::from(fsm.hold_ctr()), SimDuration::ZERO);
                ctx.drive_word(
                    obs.recycle_ctr,
                    u64::from(fsm.recycle_ctr()),
                    SimDuration::ZERO,
                );
            }
        }
    }

    /// A rising edge: the shared edge step over the kernel's wires.
    fn on_rising(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let mut port = EventPort {
            w: &mut self.wires,
            ctx: &mut *ctx,
        };
        let core = &mut self.core;
        let violated = core.pre_tick(now, &mut port);
        self.logic
            .tick(core.cycle, &mut SbIo::new(&core.views, &mut core.slots));
        core.record(&mut self.trace, violated);
        let mut faults = self.faults.as_ref().map(|f| f.borrow_mut());
        core.post_tick(violated, &mut port, faults.as_deref_mut());
        drop(faults);
        self.drive_observe(ctx);
    }

    fn handle_token(&mut self, ctx: &mut Ctx<'_>, sig: SignalId) {
        let mut restart = false;
        for (n, wire) in self.core.nodes.iter_mut().zip(&mut self.wires.nodes) {
            if wire.token_in.id() != sig {
                continue;
            }
            let v = ctx.bit(wire.token_in);
            if v == wire.prev_token_in {
                continue;
            }
            wire.prev_token_in = v;
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
                    self.on_rising(ctx);
                }
            }
            Wake::Signal(sig) => {
                // Token wires, or (bypass) head_valid edges for the
                // synchronizer's window bookkeeping.
                if self.wires.window.is_some() {
                    for inp in &mut self.wires.inputs {
                        if inp.ports.head_valid.id() == sig {
                            inp.sync.last_valid_change = ctx.now();
                        }
                    }
                }
                self.handle_token(ctx, sig);
            }
            _ => {}
        }
    }
}
