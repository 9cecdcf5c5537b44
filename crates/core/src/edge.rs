//! The wrapper's rising-edge step, written once for both engines.
//!
//! On every rising edge an SB wrapper (paper Figure 1B) checks its
//! setup time, opens this cycle's enable windows, presents its inputs
//! and output availability, lets the logic tick, transmits and
//! acknowledges, then advances its hold/recycle node FSMs, passes
//! tokens and gates its clock. [`WrapperCore`] owns the state that
//! protocol runs on — the node FSMs, the cycle count, the setup-time
//! check, the edge-time log, the dropped-word count and the per-edge
//! view and slot scratch — and runs it against an [`EdgePort`]: the
//! scheduler decides *when* an edge happens, and this one executor
//! decides *what* it does.
//!
//! Two ports implement the wires:
//!
//! * the event kernel's wrapper (`wrapper.rs`) reads and drives kernel
//!   signals and models the bypass baseline's two-flop synchronizer;
//! * the compiled engine (`engine.rs`) reads FIFO occupancy columns,
//!   drains virtualized move cascades, draws wire jitter and queues
//!   typed events.
//!
//! An edge is [`pre_tick`](WrapperCore::pre_tick) (steps 0–3), the
//! caller's logic tick and trace row (step 4: the compiled engine's
//! lanes plane ticks each lane and may split there), then
//! [`post_tick`](WrapperCore::post_tick) (steps 5–8). The core consults
//! the protocol [`FaultInjector`] itself, once per transmit,
//! acknowledge and token pass, so both engines make the same fault
//! decisions in the same order by construction.

use crate::faults::{FaultInjector, TokenPassAction};
use crate::iotrace::SbIoTrace;
use crate::logic::{InputView, OutputSlot};
use crate::node::NodeFsm;
use crate::spec::{ChannelId, RingId, SbId, SystemSpec};
use st_sim::prelude::*;

/// A word as transmitted on an edge that did (or did not) violate the
/// setup time: the violation corrupts it, visibly and
/// deterministically.
#[inline]
pub(crate) fn corrupt(word: u64, violated: bool) -> u64 {
    if violated {
        word ^ 0x5A5A
    } else {
        word
    }
}

/// The wires an edge step reads and drives. Inputs and outputs are
/// indexed in channel-id order of the SB's channels, nodes in the
/// core's node order.
pub(crate) trait EdgePort {
    /// The word at input `i`'s FIFO head (channel `ch`), if the SB sees
    /// one this cycle. Called once per edge while the input's window is
    /// open, which in bypass mode is every edge.
    fn head(&mut self, i: usize, ch: ChannelId) -> Option<u64>;
    /// Whether output `k`'s FIFO (channel `ch`) can accept a word.
    /// Called only while the output's window is open.
    fn tail_free(&mut self, k: usize, ch: ChannelId) -> bool;
    /// Transmits `word` on output `k` (channel `ch`), its request
    /// toggle `extra` late.
    fn push(&mut self, k: usize, ch: ChannelId, word: u64, extra: SimDuration);
    /// Acknowledges input `i`'s head word (channel `ch`), the toggle
    /// `extra` late.
    fn ack(&mut self, i: usize, ch: ChannelId, extra: SimDuration);
    /// Passes node `node`'s token under the fault decision `action`.
    fn pass_token(&mut self, node: usize, action: TokenPassAction);
    /// Drives the clock enable after a node stopped the clock.
    fn set_clken(&mut self, ena: bool);
}

/// One token-ring node of an SB.
#[derive(Debug, Clone)]
pub(crate) struct CoreNode {
    pub(crate) ring: RingId,
    pub(crate) fsm: NodeFsm,
    /// True when outgoing passes travel toward the ring's initial
    /// holder (this node sits on the peer side): the token
    /// fault-injection direction bit.
    pub(crate) to_holder: bool,
}

/// One SB's edge-step state, shared by both engines.
#[derive(Debug, Clone)]
pub(crate) struct WrapperCore {
    /// One node per ring touching the SB, in `rings_of` order.
    pub(crate) nodes: Vec<CoreNode>,
    /// Input channels in channel-id order, with the node gating each.
    pub(crate) inputs: Vec<(ChannelId, usize)>,
    /// Output channels in channel-id order, with the node gating each.
    pub(crate) outputs: Vec<(ChannelId, usize)>,
    /// Bypass mode: every window is open and the nodes never step.
    bypass: bool,
    /// Modelled critical-path delay; a shorter cycle corrupts the
    /// edge's outputs.
    logic_delay: SimDuration,
    pub(crate) cycle: u64,
    /// Words the logic tried to send while the channel could not
    /// accept them.
    pub(crate) dropped_words: u64,
    pub(crate) timing_violations: u64,
    pub(crate) last_edge: Option<SimTime>,
    /// Wall-clock time of each rising edge, capped like the I/O trace.
    pub(crate) edge_times: Vec<SimTime>,
    edge_times_cap: usize,
    // Per-edge scratch, reused so the steady state allocates nothing.
    // An input popped this edge iff its view carries a word.
    pub(crate) views: Vec<InputView>,
    pub(crate) slots: Vec<OutputSlot>,
}

impl WrapperCore {
    /// The core of `sb` in `spec`: its nodes (the ring holder starts
    /// with the token, the peer waits out its initial recycle) and its
    /// channel endpoints.
    pub(crate) fn new(spec: &SystemSpec, sb: SbId, bypass: bool, trace_limit: usize) -> Self {
        let nodes: Vec<CoreNode> = spec
            .rings_of(sb)
            .map(|(ring, r)| {
                let holder_side = r.holder == sb;
                let fsm = if holder_side {
                    NodeFsm::new_holder(r.holder_node)
                } else {
                    NodeFsm::new_waiter(
                        r.peer_node,
                        r.peer_initial_recycle.unwrap_or(r.peer_node.recycle),
                    )
                };
                CoreNode {
                    ring,
                    fsm,
                    to_holder: !holder_side,
                }
            })
            .collect();
        let node_of = |ring: RingId| {
            nodes
                .iter()
                .position(|n| n.ring == ring)
                .expect("a channel's ring touches both its ends")
        };
        let inputs: Vec<_> = spec
            .inputs_of(sb)
            .map(|(c, ch)| (c, node_of(ch.ring)))
            .collect();
        let outputs: Vec<_> = spec
            .outputs_of(sb)
            .map(|(c, ch)| (c, node_of(ch.ring)))
            .collect();
        WrapperCore {
            views: Vec::with_capacity(inputs.len()),
            slots: Vec::with_capacity(outputs.len()),
            nodes,
            inputs,
            outputs,
            bypass,
            logic_delay: spec.sbs[sb.0].logic_delay,
            cycle: 0,
            dropped_words: 0,
            timing_violations: 0,
            last_edge: None,
            // Pre-size for short traces only: the limit can be any
            // caller-supplied value, far past the cycles that run.
            edge_times: Vec::with_capacity(trace_limit.min(1024)),
            edge_times_cap: if trace_limit == 0 {
                1 << 20
            } else {
                trace_limit
            },
        }
    }

    /// The node on `ring`, if the SB has one.
    pub(crate) fn node(&self, ring: RingId) -> Option<&NodeFsm> {
        self.nodes.iter().find(|n| n.ring == ring).map(|n| &n.fsm)
    }

    /// Mutable access to the node on `ring`.
    pub(crate) fn node_mut(&mut self, ring: RingId) -> Option<&mut NodeFsm> {
        self.nodes
            .iter_mut()
            .find(|n| n.ring == ring)
            .map(|n| &mut n.fsm)
    }

    /// True when every node lets the clock run.
    pub(crate) fn clock_enabled(&self) -> bool {
        self.nodes.iter().all(|n| n.fsm.clock_enabled())
    }

    /// Whether node `node`'s interfaces are open this cycle. The nodes
    /// advance only in step 7, so this reads the pre-step state.
    fn enabled(&self, node: usize) -> bool {
        self.bypass || self.nodes[node].fsm.interfaces_enabled()
    }

    /// Steps 0–3 of a rising edge at `now`: the setup-time check, then
    /// the input views and output slots the logic ticks against.
    /// Returns whether the edge violated the setup time.
    #[inline]
    pub(crate) fn pre_tick(&mut self, now: SimTime, port: &mut impl EdgePort) -> bool {
        // 0. A cycle shorter than `logic_delay` corrupts this cycle's
        // outputs, visibly to the trace comparison: what a shmoo run
        // needs to find the failing frequency.
        let violated = match self.last_edge {
            Some(prev) if !self.logic_delay.is_zero() => now.since(prev) < self.logic_delay,
            _ => false,
        };
        self.last_edge = Some(now);
        if violated {
            self.timing_violations += 1;
        }
        if self.edge_times.len() < self.edge_times_cap {
            self.edge_times.push(now);
        }

        // 1–2. Input interfaces, gated by this cycle's enable windows.
        self.views.clear();
        for (i, &(ch, node)) in self.inputs.iter().enumerate() {
            let ena = self.enabled(node);
            let data = if ena { port.head(i, ch) } else { None };
            self.views.push(InputView {
                data,
                enabled: ena,
                empty: ena && data.is_none(),
            });
        }

        // 3. Output availability.
        self.slots.clear();
        for (k, &(ch, node)) in self.outputs.iter().enumerate() {
            let can_send = self.enabled(node) && port.tail_free(k, ch);
            self.slots.push(OutputSlot {
                can_send,
                word: None,
            });
        }
        violated
    }

    /// Records this edge's trace row: each input's word if it popped,
    /// each output's word as transmitted if the channel accepted it.
    pub(crate) fn record(&self, trace: &mut SbIoTrace, violated: bool) {
        trace.record_with(
            self.cycle,
            self.views.iter().map(|v| v.data),
            self.slots
                .iter()
                .map(|s| s.word.filter(|_| s.can_send).map(|w| corrupt(w, violated))),
        );
    }

    /// Steps 5–8 of a rising edge, after the logic ticked into the
    /// slots: transmit, acknowledge, step the nodes, pass tokens, gate
    /// the clock and count the cycle. `faults` decides every transmit,
    /// acknowledge and token pass.
    #[inline]
    pub(crate) fn post_tick(
        &mut self,
        violated: bool,
        port: &mut impl EdgePort,
        mut faults: Option<&mut FaultInjector>,
    ) {
        // The injector's verdict on a handshake toggle: its extra wire
        // delay, `None` when it is lost.
        const ON_TIME: Option<SimDuration> = Some(SimDuration::ZERO);

        // 5. Transmit accepted words. A dropped request toggle is lost
        // on the wire; the logic (and the trace) still sent it.
        for (k, (&(ch, _), slot)) in self.outputs.iter().zip(&self.slots).enumerate() {
            match slot.word {
                Some(w) if slot.can_send => {
                    if let Some(extra) = faults.as_deref_mut().map_or(ON_TIME, |f| f.on_push(ch)) {
                        port.push(k, ch, corrupt(w, violated), extra);
                    }
                }
                Some(_) => self.dropped_words += 1,
                None => {}
            }
        }

        // 6. Acknowledge consumed words. A dropped acknowledge never
        // pops the head, so the same word is read again.
        let inputs = self.inputs.iter().zip(&self.views).enumerate();
        for (i, (&(ch, _), _)) in inputs.filter(|(_, (_, view))| view.data.is_some()) {
            if let Some(extra) = faults.as_deref_mut().map_or(ON_TIME, |f| f.on_ack(ch)) {
                port.ack(i, ch, extra);
            }
        }

        // 7. Node FSMs advance; tokens pass; the clock enable updates.
        if !self.bypass {
            let mut any_stop = false;
            for (i, n) in self.nodes.iter_mut().enumerate() {
                let action = n.fsm.on_posedge();
                if action.pass_token {
                    let pass = faults.as_deref_mut().map_or(TokenPassAction::Deliver, |f| {
                        f.on_token_pass(n.ring, n.to_holder)
                    });
                    port.pass_token(i, pass);
                }
                any_stop |= action.stop_clock;
            }
            if any_stop {
                port.set_clken(self.clock_enabled());
            }
        }

        // 8. The edge is over; the caller recorded its trace row.
        self.cycle += 1;
    }
}

#[cfg(test)]
mod tests {
    use crate::checkpoint::{DecodedState, InjectorDump};
    use crate::faults::{Fault, FaultClass, FaultPlan};
    use crate::scenarios::{mixer_builder, pingpong_spec};
    use crate::{AnySystem, Backend, ChannelId, RingId, SbId};
    use st_sim::prelude::*;

    /// The injector's `(token, push, ack)` counters and the jitter
    /// occurrence bytes of a run, read from its snapshot.
    fn counters(sys: &AnySystem) -> (InjectorDump, Vec<u8>) {
        match sys.snapshot().expect("snapshot").state {
            DecodedState::Event(d) => (d.injector, d.kernel.delay_model),
            DecodedState::Compiled(d) => (d.injector, d.jitter.expect("jitter is active")),
        }
    }

    /// Under analog jitter and a dense protocol plan (dropped,
    /// delayed and duplicated token passes, requests and acknowledges,
    /// several on one edge) both engines consult the injector and draw
    /// jitter through the one edge step: after the same run they hold
    /// the same counters and the same traces.
    #[test]
    fn both_engines_make_the_same_fault_draws() {
        let spec = pingpong_spec();
        let (ring, tx, rx) = (RingId(0), ChannelId(0), ChannelId(1));
        let mut plan = FaultPlan::generate(FaultClass::Analog, &spec, 5);
        for n in 0..8 {
            let extra = SimDuration::ps(700 + 100 * n);
            plan.protocol.extend([
                Fault::TokenDup {
                    ring,
                    to_holder: n % 2 == 0,
                    nth: n,
                    extra,
                },
                Fault::TokenDelay {
                    ring,
                    to_holder: n % 2 == 1,
                    nth: n,
                    extra,
                },
                Fault::ReqDrop {
                    channel: tx,
                    nth: 3 * n,
                },
                Fault::ChannelStall {
                    channel: tx,
                    nth: 3 * n + 1,
                    extra,
                },
                Fault::AckDrop {
                    channel: rx,
                    nth: 2 * n,
                },
            ]);
        }
        let run = |backend| {
            let mut sys = mixer_builder(&spec, 5, 0)
                .with_fault_plan(plan.clone())
                .build_backend(backend);
            sys.run_until_cycles(200, SimDuration::us(100))
                .expect("run");
            sys
        };
        let (ev, cc) = (run(Backend::Event), run(Backend::Compiled));
        let (ev_counters, cc_counters) = (counters(&ev), counters(&cc));
        let Some((tok, push, ack)) = &ev_counters.0 else {
            panic!("the injector is installed");
        };
        assert!(
            tok.iter().sum::<u64>() >= 15 && push[0] >= 24 && ack[1] >= 16,
            "the run reaches the plan's faults: {ev_counters:?}"
        );
        assert_eq!(ev_counters, cc_counters);
        for i in 0..spec.sbs.len() {
            let (a, b) = (ev.io_trace(SbId(i)), cc.io_trace(SbId(i)));
            assert_eq!(a.to_canonical_bytes(), b.to_canonical_bytes());
        }
    }
}
