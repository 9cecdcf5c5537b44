//! Deterministic, seedable fault injection — attacking the determinism
//! invariant from every layer.
//!
//! The paper's central claim (§3) is that synchro-tokens make every SB's
//! I/O sequence a pure function of its local cycle count, *invariant
//! under analog variation*: clock phase, jitter, drift, process and wire
//! delay. This module turns that claim into an executable, adversarial
//! oracle. Faults are injected at three layers:
//!
//! * **Analog** ([`AnalogFault`]) — bounded per-edge clock jitter and
//!   drift, token-wire and bundled-data wire-delay perturbation. Applied
//!   through the kernel's [`DelayModel`] hook on the event backend and
//!   mirrored at the equivalent scheduling sites in the compiled engine.
//!   The invariant says these must leave the [`SbIoTrace`] *byte
//!   identical* to the unfaulted golden run.
//! * **Protocol** ([`Fault`]) — token loss/duplication/delay, dropped
//!   req/ack toggles, FIFO stage stalls. These break the protocol's
//!   assumptions, so the oracle only requires a *classified, diagnosable*
//!   outcome: trace-identical, a divergence report with the first
//!   divergent cycle, or a detected deadlock naming the stalled SBs —
//!   never a silent wrong trace, never a hang.
//! * **State** ([`SeuFault`]) — single-event upsets in wrapper/node
//!   state: hold/recycle counter bit flips and token-latch flips,
//!   applied at a chosen local cycle. Same oracle as protocol faults.
//!   (Gate-level SEUs in the bit-parallel engine live in
//!   `st_cells::compiled::CompiledCircuit::inject_seu`.)
//!
//! Every fault draw is a pure hash of `(plan seed, fault class, unit,
//! occurrence index)`, so a [`FaultPlan`] replays bit-exactly on both
//! backends and across processes — fault campaigns are as reproducible
//! as the runs they attack.

use crate::compiled_system::AnySystem;
use crate::iotrace::SbIoTrace;
use crate::spec::{ChannelId, RingId, SbId, SystemSpec};
use crate::system::RunOutcome;
use st_sim::hash::{mix64, GOLDEN};
use st_sim::prelude::*;
use std::collections::BTreeMap;
use std::fmt;

/// One splitmix64 step from state `x` (the first output of
/// `SimRng::seed_from_u64(x)`): the one-way mixing function behind every
/// fault draw. Statistically strong enough for bounded jitter draws and
/// cheap enough to call per scheduled event.
fn splitmix(x: u64) -> u64 {
    mix64(x.wrapping_add(GOLDEN))
}

/// Fault-draw class tags (also the jitter-unit namespaces).
pub(crate) const CLASS_CLK: u8 = 0;
pub(crate) const CLASS_TOKEN: u8 = 1;
pub(crate) const CLASS_DATA: u8 = 2;

/// Analog-layer perturbations: bounded, always non-negative extra delay
/// on physical wires. Zero bounds disable a term.
///
/// Unit numbering (shared verbatim by both backends so occurrence
/// counters line up): clock unit = SB index; token unit =
/// `ring * 2 + direction` (1 = toward the holder side); data unit =
/// `channel * 2` for requests, `channel * 2 + 1` for acknowledges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct AnalogFault {
    /// Per-rising-edge clock jitter bound (uniform in `[0, bound]`).
    pub clock_jitter: SimDuration,
    /// Per-edge drift increment: edge `n` is additionally late by
    /// `min(n * step, cap)` — a slow, monotone frequency error.
    pub clock_drift_step: SimDuration,
    /// Cap on the accumulated drift term.
    pub clock_drift_cap: SimDuration,
    /// Per-toggle token-wire jitter bound.
    pub token_jitter: SimDuration,
    /// Per-toggle req/ack wire jitter bound.
    pub data_jitter: SimDuration,
}

impl AnalogFault {
    /// True when at least one term can produce a non-zero delay.
    pub fn is_active(&self) -> bool {
        !(self.clock_jitter.is_zero()
            && self.clock_drift_step.is_zero()
            && self.token_jitter.is_zero()
            && self.data_jitter.is_zero())
    }

    fn bound_fs(&self, class: u8) -> u64 {
        match class {
            CLASS_CLK => self.clock_jitter.as_fs(),
            CLASS_TOKEN => self.token_jitter.as_fs(),
            _ => self.data_jitter.as_fs(),
        }
    }

    /// The extra delay for occurrence `occ` of `(class, unit)` under
    /// `seed` — a pure function, identical on both backends. `class` is
    /// the draw class tag: 0 clock, 1 token, 2 data.
    pub fn delta(&self, seed: u64, class: u8, unit: u32, occ: u64) -> SimDuration {
        let bound = self.bound_fs(class);
        let jitter = if bound == 0 {
            0
        } else {
            let key = splitmix(
                seed ^ splitmix((u64::from(class) << 32) | u64::from(unit)) ^ splitmix(occ),
            );
            key % (bound + 1)
        };
        let drift = if class == CLASS_CLK {
            self.clock_drift_step
                .as_fs()
                .saturating_mul(occ)
                .min(self.clock_drift_cap.as_fs())
        } else {
            0
        };
        SimDuration::fs(jitter + drift)
    }
}

/// Per-`(class, unit)` occurrence counters plus the draw itself: the
/// shared jitter engine both backends consult. Counting *delivered*
/// schedules (never dropped ones) on both sides keeps the draws aligned.
#[derive(Debug, Clone, Default)]
pub(crate) struct JitterCounters {
    fault: AnalogFault,
    seed: u64,
    occ: BTreeMap<(u8, u32), u64>,
}

impl JitterCounters {
    pub(crate) fn new(fault: AnalogFault, seed: u64) -> Self {
        JitterCounters {
            fault,
            seed,
            occ: BTreeMap::new(),
        }
    }

    /// Draws the next perturbation for `(class, unit)` and advances the
    /// occurrence counter.
    pub(crate) fn next(&mut self, class: u8, unit: u32) -> SimDuration {
        let occ = self.occ.entry((class, unit)).or_insert(0);
        let n = *occ;
        *occ += 1;
        self.fault.delta(self.seed, class, unit, n)
    }

    /// Canonical byte dump of the occurrence counters (the only dynamic
    /// state; bounds and seed are construction-time). BTreeMap iteration
    /// order makes the encoding deterministic.
    pub(crate) fn snapshot_occ(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(8 + 13 * self.occ.len());
        b.extend_from_slice(&(self.occ.len() as u64).to_le_bytes());
        for (&(class, unit), &n) in &self.occ {
            b.push(class);
            b.extend_from_slice(&unit.to_le_bytes());
            b.extend_from_slice(&n.to_le_bytes());
        }
        b
    }

    /// Restores counters dumped by [`snapshot_occ`](Self::snapshot_occ).
    pub(crate) fn restore_occ(&mut self, bytes: &[u8]) -> bool {
        if bytes.len() < 8 {
            return false;
        }
        let n = u64::from_le_bytes(bytes[..8].try_into().unwrap()) as usize;
        // A corrupt count must not overflow into a matching length.
        if n.checked_mul(13).and_then(|b| b.checked_add(8)) != Some(bytes.len()) {
            return false;
        }
        self.occ.clear();
        for e in bytes[8..].chunks_exact(13) {
            let class = e[0];
            let unit = u32::from_le_bytes(e[1..5].try_into().unwrap());
            let occ = u64::from_le_bytes(e[5..13].try_into().unwrap());
            self.occ.insert((class, unit), occ);
        }
        true
    }
}

/// Signal classification for the event backend's [`DelayModel`]: which
/// physical wire a signal models, and its jitter unit.
#[derive(Debug, Clone, Copy)]
enum SigClass {
    /// An SB clock; only rising (`Bit::One`) drives are perturbed.
    Clk(u32),
    /// A token toggle wire.
    Token(u32),
    /// A req/ack toggle wire.
    Data(u32),
}

/// The event-backend analog model: classifies each driven signal and
/// applies the shared jitter draw. Installed by `SystemBuilder::build`
/// when a plan with an active [`AnalogFault`] is attached.
#[derive(Debug)]
pub(crate) struct AnalogDelayModel {
    counters: JitterCounters,
    classes: BTreeMap<SignalId, SigClass>,
}

impl AnalogDelayModel {
    pub(crate) fn new(fault: AnalogFault, seed: u64) -> Self {
        AnalogDelayModel {
            counters: JitterCounters::new(fault, seed),
            classes: BTreeMap::new(),
        }
    }

    pub(crate) fn classify_clk(&mut self, sig: SignalId, sb: u32) {
        self.classes.insert(sig, SigClass::Clk(sb));
    }

    pub(crate) fn classify_token(&mut self, sig: SignalId, unit: u32) {
        self.classes.insert(sig, SigClass::Token(unit));
    }

    pub(crate) fn classify_data(&mut self, sig: SignalId, unit: u32) {
        self.classes.insert(sig, SigClass::Data(unit));
    }
}

impl DelayModel for AnalogDelayModel {
    fn perturb(
        &mut self,
        sig: SignalId,
        value: &Value,
        _now: SimTime,
        nominal: SimDuration,
    ) -> SimDuration {
        match self.classes.get(&sig) {
            Some(&SigClass::Clk(unit)) => {
                // Only rising edges jitter; falling edges complete on
                // the oscillator's nominal schedule (the paper's clock
                // stops synchronously at would-be rising edges, so the
                // rising edge is where phase error manifests).
                if *value == Value::Bit(Bit::One) {
                    nominal + self.counters.next(CLASS_CLK, unit)
                } else {
                    nominal
                }
            }
            Some(&SigClass::Token(unit)) => nominal + self.counters.next(CLASS_TOKEN, unit),
            Some(&SigClass::Data(unit)) => nominal + self.counters.next(CLASS_DATA, unit),
            None => nominal,
        }
    }

    fn snapshot_state(&self) -> Vec<u8> {
        self.counters.snapshot_occ()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        self.counters.restore_occ(bytes)
    }
}

/// One protocol-layer fault. `nth` counts occurrences of the targeted
/// action from zero (e.g. `nth: 3` hits the fourth token pass on that
/// ring in that direction).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Fault {
    /// The `nth` token pass on `ring` (toward the holder side iff
    /// `to_holder`) is silently lost on the wire.
    TokenLoss {
        /// Targeted ring.
        ring: RingId,
        /// Direction: toward the initial holder's node.
        to_holder: bool,
        /// Zero-based pass occurrence.
        nth: u64,
    },
    /// The `nth` token pass is duplicated: a second toggle follows the
    /// first after `extra`.
    TokenDup {
        /// Targeted ring.
        ring: RingId,
        /// Direction: toward the initial holder's node.
        to_holder: bool,
        /// Zero-based pass occurrence.
        nth: u64,
        /// Separation of the duplicate toggle (must be positive).
        extra: SimDuration,
    },
    /// The `nth` token pass is delayed by `extra` beyond the ring's
    /// nominal propagation delay.
    TokenDelay {
        /// Targeted ring.
        ring: RingId,
        /// Direction: toward the initial holder's node.
        to_holder: bool,
        /// Zero-based pass occurrence.
        nth: u64,
        /// Additional wire delay.
        extra: SimDuration,
    },
    /// The `nth` request toggle on `channel` never reaches the FIFO (the
    /// word is transmitted by the logic but lost on the wire).
    ReqDrop {
        /// Targeted channel.
        channel: ChannelId,
        /// Zero-based push occurrence.
        nth: u64,
    },
    /// The `nth` acknowledge toggle on `channel` is lost: the consumer
    /// read the head word, but the FIFO never pops it.
    AckDrop {
        /// Targeted channel.
        channel: ChannelId,
        /// Zero-based acknowledge occurrence.
        nth: u64,
    },
    /// The `nth` push into `channel` is stalled by `extra` (a slow FIFO
    /// entry stage).
    ChannelStall {
        /// Targeted channel.
        channel: ChannelId,
        /// Zero-based push occurrence.
        nth: u64,
        /// Additional entry latency.
        extra: SimDuration,
    },
}

/// State-layer SEU target within a node FSM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SeuTarget {
    /// Flip bit `b` of the hold counter (clamped to stay ≥ 1).
    HoldBit(u32),
    /// Flip bit `b` of the recycle counter (clamped to stay ≥ 1).
    RecycleBit(u32),
    /// Flip the token latch (`has_token`).
    TokenLatch,
}

/// A single-event upset: flip one bit of `sb`'s node state on `ring`
/// once that SB reaches local cycle `at_cycle`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SeuFault {
    /// The SB whose node is struck.
    pub sb: SbId,
    /// The ring whose node is struck.
    pub ring: RingId,
    /// Local cycle (of the whole system, via `run_until_cycles`) at
    /// which the flip is applied.
    pub at_cycle: u64,
    /// What flips.
    pub target: SeuTarget,
}

/// The three fault layers, as classes with distinct oracle strength.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Analog variation: the invariant demands byte-identical traces.
    Analog,
    /// Protocol attacks: a classified outcome is required.
    Protocol,
    /// State upsets: a classified outcome is required.
    State,
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultClass::Analog => write!(f, "analog"),
            FaultClass::Protocol => write!(f, "protocol"),
            FaultClass::State => write!(f, "state"),
        }
    }
}

/// A complete, replayable fault schedule for one run.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct FaultPlan {
    /// Seed for every analog draw in this plan.
    pub seed: u64,
    /// Analog-layer perturbation bounds.
    pub analog: AnalogFault,
    /// Protocol-layer faults.
    pub protocol: Vec<Fault>,
    /// State-layer upsets.
    pub seu: Vec<SeuFault>,
}

impl FaultPlan {
    /// True when the plan perturbs nothing.
    pub fn is_empty(&self) -> bool {
        !self.analog.is_active() && self.protocol.is_empty() && self.seu.is_empty()
    }

    /// True when only analog-layer faults are present — the class whose
    /// oracle demands byte-identical traces.
    pub fn is_analog_only(&self) -> bool {
        self.analog.is_active() && self.protocol.is_empty() && self.seu.is_empty()
    }

    /// For plans whose *only* faults are SEUs, the earliest local cycle
    /// any of them fires; `None` otherwise.
    ///
    /// SEU-only plans are special for prefix-sharing: analog and protocol
    /// faults install builder-time machinery (delay models, injectors)
    /// that makes the attacked engine differ from the nominal one from
    /// cycle 0, but SEUs are applied *externally* by
    /// [`run_with_plan`] — until the first `at_cycle`, the engine is
    /// bit-identical to a fault-free run and can resume from a shared
    /// nominal checkpoint.
    pub fn seu_only_first_fire(&self) -> Option<u64> {
        if self.analog.is_active() || !self.protocol.is_empty() {
            return None;
        }
        self.seu.iter().map(|s| s.at_cycle).min()
    }

    /// Generates a single-class plan for `spec`, derived entirely from
    /// `seed`. Bounds are spec-aware:
    ///
    /// * clock jitter stays well under the smallest half period *and*
    ///   under a quarter of the smallest setup slack
    ///   (`period - logic_delay`), so a jitter-shortened cycle can never
    ///   trip the modelled setup check — analog faults must exercise the
    ///   invariant, not manufacture a legitimate timing failure;
    /// * token/data jitter stays under a sixteenth of the smallest half
    ///   period;
    /// * stall/delay extras stay under half the smallest half period,
    ///   so compiled-backend event mirroring stays exact.
    pub fn generate(class: FaultClass, spec: &SystemSpec, seed: u64) -> FaultPlan {
        let mut state = splitmix(seed ^ 0x5EED_FA17);
        let mut next = || {
            state = splitmix(state);
            state
        };
        let min_half = spec
            .sbs
            .iter()
            .map(|s| s.period.as_fs() / 2)
            .min()
            .unwrap_or(1)
            .max(1);
        let mut plan = FaultPlan {
            seed,
            ..FaultPlan::default()
        };
        match class {
            FaultClass::Analog => {
                let slack = spec
                    .sbs
                    .iter()
                    .map(|s| s.period.as_fs().saturating_sub(s.logic_delay.as_fs()))
                    .min()
                    .unwrap_or(0);
                let divisor = 16 << (next() % 3); // 16, 32 or 64
                let clock = (min_half / divisor).min(slack / 4);
                let wire = (min_half / 16).max(1);
                plan.analog = AnalogFault {
                    clock_jitter: SimDuration::fs(clock),
                    clock_drift_step: SimDuration::fs(clock / 8),
                    clock_drift_cap: SimDuration::fs(clock),
                    token_jitter: SimDuration::fs(wire),
                    data_jitter: SimDuration::fs(wire),
                };
            }
            FaultClass::Protocol => {
                let n = 1 + next() % 3;
                for _ in 0..n {
                    let ring = RingId((next() % spec.rings.len().max(1) as u64) as usize);
                    let channel = ChannelId((next() % spec.channels.len().max(1) as u64) as usize);
                    let to_holder = next() & 1 == 0;
                    let nth = next() % 12;
                    let extra = SimDuration::fs(1 + next() % (min_half / 2).max(1));
                    plan.protocol.push(match next() % 6 {
                        0 => Fault::TokenLoss {
                            ring,
                            to_holder,
                            nth,
                        },
                        1 => Fault::TokenDup {
                            ring,
                            to_holder,
                            nth,
                            extra,
                        },
                        2 => Fault::TokenDelay {
                            ring,
                            to_holder,
                            nth,
                            extra,
                        },
                        3 => Fault::ReqDrop { channel, nth },
                        4 => Fault::AckDrop { channel, nth },
                        _ => Fault::ChannelStall {
                            channel,
                            nth,
                            extra,
                        },
                    });
                }
            }
            FaultClass::State => {
                let n = 1 + next() % 2;
                for _ in 0..n {
                    let ring_idx = (next() % spec.rings.len().max(1) as u64) as usize;
                    let ring_spec = &spec.rings[ring_idx.min(spec.rings.len().saturating_sub(1))];
                    let sb = if next() & 1 == 0 {
                        ring_spec.holder
                    } else {
                        ring_spec.peer
                    };
                    let bit = (next() % 3) as u32;
                    plan.seu.push(SeuFault {
                        sb,
                        ring: RingId(ring_idx),
                        at_cycle: 4 + next() % 36,
                        target: match next() % 4 {
                            0 => SeuTarget::HoldBit(bit),
                            1 => SeuTarget::RecycleBit(bit),
                            _ => SeuTarget::TokenLatch,
                        },
                    });
                }
            }
        }
        plan
    }
}

/// Per-unit protocol-fault occurrence counters; consulted by both
/// backends at the same logical sites (transmit, acknowledge, token
/// pass), so a plan replays identically.
#[derive(Debug, Clone)]
pub(crate) struct FaultInjector {
    faults: Vec<Fault>,
    /// Token passes seen, indexed `ring * 2 + to_holder`.
    token_passes: Vec<u64>,
    /// Pushes seen, per channel.
    pushes: Vec<u64>,
    /// Acknowledges seen, per channel.
    acks: Vec<u64>,
}

/// What a token pass becomes under the active plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TokenPassAction {
    Deliver,
    Drop,
    Delay(SimDuration),
    Duplicate(SimDuration),
}

/// What a req/ack toggle becomes under the active plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DataAction {
    Deliver,
    Drop,
    Delay(SimDuration),
}

impl FaultInjector {
    pub(crate) fn new(faults: Vec<Fault>, rings: usize, channels: usize) -> Self {
        FaultInjector {
            faults,
            token_passes: vec![0; rings * 2],
            pushes: vec![0; channels],
            acks: vec![0; channels],
        }
    }

    /// Consulted once per token pass; counts the pass and returns what
    /// the wire should do with it.
    pub(crate) fn on_token_pass(&mut self, ring: RingId, to_holder: bool) -> TokenPassAction {
        let unit = ring.0 * 2 + usize::from(to_holder);
        let n = self.token_passes[unit];
        self.token_passes[unit] += 1;
        for f in &self.faults {
            match *f {
                Fault::TokenLoss {
                    ring: r,
                    to_holder: d,
                    nth,
                } if r == ring && d == to_holder && nth == n => return TokenPassAction::Drop,
                Fault::TokenDup {
                    ring: r,
                    to_holder: d,
                    nth,
                    extra,
                } if r == ring && d == to_holder && nth == n => {
                    return TokenPassAction::Duplicate(extra)
                }
                Fault::TokenDelay {
                    ring: r,
                    to_holder: d,
                    nth,
                    extra,
                } if r == ring && d == to_holder && nth == n => {
                    return TokenPassAction::Delay(extra)
                }
                _ => {}
            }
        }
        TokenPassAction::Deliver
    }

    /// Consulted once per accepted transmit.
    pub(crate) fn on_push(&mut self, channel: ChannelId) -> DataAction {
        let n = self.pushes[channel.0];
        self.pushes[channel.0] += 1;
        for f in &self.faults {
            match *f {
                Fault::ReqDrop { channel: c, nth } if c == channel && nth == n => {
                    return DataAction::Drop
                }
                Fault::ChannelStall {
                    channel: c,
                    nth,
                    extra,
                } if c == channel && nth == n => return DataAction::Delay(extra),
                _ => {}
            }
        }
        DataAction::Deliver
    }

    /// Dumps the occurrence counters (the fault list is construction-time
    /// state shared with the plan).
    pub(crate) fn snapshot_counters(&self) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
        (
            self.token_passes.clone(),
            self.pushes.clone(),
            self.acks.clone(),
        )
    }

    /// Restores counters dumped by
    /// [`snapshot_counters`](Self::snapshot_counters); `false` on a shape
    /// mismatch (checkpoint from a different topology).
    pub(crate) fn restore_counters(
        &mut self,
        token_passes: &[u64],
        pushes: &[u64],
        acks: &[u64],
    ) -> bool {
        if token_passes.len() != self.token_passes.len()
            || pushes.len() != self.pushes.len()
            || acks.len() != self.acks.len()
        {
            return false;
        }
        self.token_passes.copy_from_slice(token_passes);
        self.pushes.copy_from_slice(pushes);
        self.acks.copy_from_slice(acks);
        true
    }

    /// Consulted once per acknowledge.
    pub(crate) fn on_ack(&mut self, channel: ChannelId) -> DataAction {
        let n = self.acks[channel.0];
        self.acks[channel.0] += 1;
        for f in &self.faults {
            if let Fault::AckDrop { channel: c, nth } = *f {
                if c == channel && nth == n {
                    return DataAction::Drop;
                }
            }
        }
        DataAction::Deliver
    }
}

/// The classified result of a faulted run, compared against the golden
/// (unfaulted) traces — the executable form of the paper's invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosOutcome {
    /// Every SB's I/O trace is byte-identical to the golden run.
    TraceIdentical,
    /// At least one SB diverged; carries the earliest divergence.
    Divergence {
        /// First SB (lowest id) whose trace differs.
        sb: SbId,
        /// First local cycle at which it differs.
        first_cycle: u64,
    },
    /// The run deadlocked and the engine detected it.
    Deadlock {
        /// SBs whose clocks were parked at detection.
        stopped: Vec<SbId>,
    },
    /// The simulated-time budget expired first.
    Timeout,
}

impl ChaosOutcome {
    /// Short classification label for report tables.
    pub fn label(&self) -> &'static str {
        match self {
            ChaosOutcome::TraceIdentical => "trace-identical",
            ChaosOutcome::Divergence { .. } => "divergence",
            ChaosOutcome::Deadlock { .. } => "deadlock",
            ChaosOutcome::Timeout => "timeout",
        }
    }
}

impl fmt::Display for ChaosOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosOutcome::TraceIdentical => write!(f, "trace-identical"),
            ChaosOutcome::Divergence { sb, first_cycle } => {
                write!(f, "divergence at {sb} cycle {first_cycle}")
            }
            ChaosOutcome::Deadlock { stopped } => {
                write!(f, "deadlock (stopped:")?;
                for s in stopped {
                    write!(f, " {s}")?;
                }
                write!(f, ")")
            }
            ChaosOutcome::Timeout => write!(f, "timeout"),
        }
    }
}

/// Runs `sys` to `cycles` under `plan`'s SEU schedule (analog/protocol
/// faults were already installed at build time via
/// [`SystemBuilder::with_fault_plan`](crate::system::SystemBuilder::with_fault_plan)),
/// bounded by `budget` of simulated time overall. The outcome and the
/// traces are those of running every leg with `run_until_cycles`; the
/// end state past them is unspecified (see [`run_with_plan_resumed`]).
///
/// # Errors
///
/// Propagates kernel errors (combinational loops) from the event
/// backend.
pub fn run_with_plan(
    sys: &mut AnySystem,
    plan: &FaultPlan,
    cycles: u64,
    budget: SimDuration,
) -> Result<RunOutcome, SimError> {
    run_with_plan_resumed(sys, plan, 0, cycles, sys.now() + budget)
}

/// [`run_with_plan`] continued from a resumed engine: `sys` was
/// restored from a checkpoint taken after a straight run's
/// `run_until_cycles(reached, _)` call, and `deadline` is the straight
/// run's absolute budget deadline (its start time plus the budget).
/// The remaining drive — SEU flips at `reached`, the chunked runs to
/// each later fire cycle, the final run to `cycles` — then replays the
/// straight run's exact call sequence, so the continuation is
/// byte-identical to [`run_with_plan`] from a fresh build. Strikes land
/// on `run_until_cycles` chunk boundaries; only the final leg is a
/// verdict run ([`AnySystem::run_to_verdict`]), which stops once the
/// outcome and every trace are final. SEUs whose
/// (cycle-capped) fire cycle is below `reached` are applied
/// immediately without running, mirroring where the straight sequence
/// would have placed them only when `reached` equals the plan's first
/// fire cycle — which is how the prefix-fork planner always calls
/// this.
///
/// # Errors
///
/// Propagates kernel errors (combinational loops) from the event
/// backend.
pub fn run_with_plan_resumed(
    sys: &mut AnySystem,
    plan: &FaultPlan,
    resumed_cycles: u64,
    cycles: u64,
    deadline: SimTime,
) -> Result<RunOutcome, SimError> {
    let mut seus: Vec<&SeuFault> = plan.seu.iter().collect();
    seus.sort_by_key(|s| s.at_cycle);
    let mut reached = resumed_cycles;
    for seu in seus {
        let at = seu.at_cycle.min(cycles);
        if at > reached {
            let left = deadline.saturating_since(sys.now());
            if left.is_zero() {
                return Ok(RunOutcome::TimedOut);
            }
            match sys.run_until_cycles(at, left)? {
                RunOutcome::Reached => {}
                other => return Ok(other),
            }
            reached = at;
        }
        if let Some(fsm) = sys.node_mut(seu.sb, seu.ring) {
            match seu.target {
                SeuTarget::HoldBit(b) => fsm.seu_flip_hold(b),
                SeuTarget::RecycleBit(b) => fsm.seu_flip_recycle(b),
                SeuTarget::TokenLatch => fsm.seu_flip_token_latch(),
            }
        }
    }
    let left = deadline.saturating_since(sys.now());
    if left.is_zero() {
        return Ok(RunOutcome::TimedOut);
    }
    sys.run_to_verdict(cycles, left)
}

/// Classifies a completed faulted run against per-SB golden traces.
///
/// Trace comparison happens even for deadlocked/timed-out runs inside
/// the chaos driver's violation checks; here the run outcome takes
/// precedence because it already *is* a diagnosis.
pub fn classify(golden: &[SbIoTrace], sys: &AnySystem, outcome: &RunOutcome) -> ChaosOutcome {
    match outcome {
        RunOutcome::Deadlock { stopped } => ChaosOutcome::Deadlock {
            stopped: stopped.clone(),
        },
        RunOutcome::TimedOut => ChaosOutcome::Timeout,
        RunOutcome::Reached => {
            for (i, g) in golden.iter().enumerate() {
                let t = sys.io_trace(SbId(i));
                if let Some(cycle) = g.first_divergence(t) {
                    return ChaosOutcome::Divergence {
                        sb: SbId(i),
                        first_cycle: cycle,
                    };
                }
                if t.len() != g.len() {
                    return ChaosOutcome::Divergence {
                        sb: SbId(i),
                        first_cycle: t.len().min(g.len()) as u64,
                    };
                }
            }
            ChaosOutcome::TraceIdentical
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_draws_are_pure_and_bounded() {
        let f = AnalogFault {
            clock_jitter: SimDuration::fs(500),
            clock_drift_step: SimDuration::fs(10),
            clock_drift_cap: SimDuration::fs(200),
            token_jitter: SimDuration::fs(300),
            data_jitter: SimDuration::ZERO,
        };
        for occ in 0..200 {
            let a = f.delta(42, CLASS_CLK, 1, occ);
            let b = f.delta(42, CLASS_CLK, 1, occ);
            assert_eq!(a, b, "draws must be pure");
            assert!(a <= SimDuration::fs(500 + 200), "bounded: {a:?}");
            let t = f.delta(42, CLASS_TOKEN, 3, occ);
            assert!(t <= SimDuration::fs(300));
            assert_eq!(f.delta(42, CLASS_DATA, 0, occ), SimDuration::ZERO);
        }
        // Different seeds and units decorrelate.
        let spread: std::collections::BTreeSet<u64> = (0..64)
            .map(|occ| f.delta(7, CLASS_CLK, 0, occ).as_fs())
            .collect();
        assert!(spread.len() > 16, "draws must actually vary");
    }

    #[test]
    fn jitter_counters_advance_per_unit() {
        let f = AnalogFault {
            clock_jitter: SimDuration::fs(1000),
            ..AnalogFault::default()
        };
        let mut c1 = JitterCounters::new(f, 9);
        let mut c2 = JitterCounters::new(f, 9);
        // Interleaving draws across units must not change per-unit draws.
        let a0 = c1.next(CLASS_CLK, 0);
        let _ = c1.next(CLASS_CLK, 1);
        let a1 = c1.next(CLASS_CLK, 0);
        let b0 = c2.next(CLASS_CLK, 0);
        let b1 = c2.next(CLASS_CLK, 0);
        assert_eq!(a0, b0);
        assert_eq!(a1, b1);
    }

    #[test]
    fn overflowing_occurrence_counts_are_rejected() {
        let mut c = JitterCounters::new(AnalogFault::default(), 0);
        let mut bytes = (1u64 << 61).to_le_bytes().to_vec();
        assert!(!c.restore_occ(&bytes));
        // 13 * 2^61 wraps to 5 * 2^61: no real length matches it.
        bytes.extend_from_slice(&[0; 13]);
        assert!(!c.restore_occ(&bytes));
    }

    #[test]
    fn injector_matches_nth_occurrence_only() {
        let mut inj = FaultInjector::new(
            vec![
                Fault::TokenLoss {
                    ring: RingId(0),
                    to_holder: true,
                    nth: 2,
                },
                Fault::ReqDrop {
                    channel: ChannelId(1),
                    nth: 0,
                },
            ],
            2,
            2,
        );
        assert_eq!(inj.on_token_pass(RingId(0), true), TokenPassAction::Deliver);
        assert_eq!(inj.on_token_pass(RingId(0), true), TokenPassAction::Deliver);
        assert_eq!(inj.on_token_pass(RingId(0), true), TokenPassAction::Drop);
        assert_eq!(inj.on_token_pass(RingId(0), true), TokenPassAction::Deliver);
        // Other direction has its own counter.
        assert_eq!(
            inj.on_token_pass(RingId(0), false),
            TokenPassAction::Deliver
        );
        assert_eq!(inj.on_push(ChannelId(1)), DataAction::Drop);
        assert_eq!(inj.on_push(ChannelId(1)), DataAction::Deliver);
        assert_eq!(inj.on_push(ChannelId(0)), DataAction::Deliver);
        assert_eq!(inj.on_ack(ChannelId(1)), DataAction::Deliver);
    }

    #[test]
    fn generated_plans_are_single_class_and_reproducible() {
        let spec = crate::scenarios::pingpong_spec();
        for seed in 0..32 {
            let a = FaultPlan::generate(FaultClass::Analog, &spec, seed);
            assert!(a.is_analog_only(), "{a:?}");
            assert_eq!(a, FaultPlan::generate(FaultClass::Analog, &spec, seed));
            let p = FaultPlan::generate(FaultClass::Protocol, &spec, seed);
            assert!(!p.protocol.is_empty() && p.seu.is_empty() && !p.analog.is_active());
            let s = FaultPlan::generate(FaultClass::State, &spec, seed);
            assert!(!s.seu.is_empty() && s.protocol.is_empty() && !s.analog.is_active());
            // Bounds: clock jitter must stay well under the half period.
            let min_half = spec.sbs.iter().map(|x| x.period / 2).min().unwrap();
            assert!(a.analog.clock_jitter + a.analog.clock_drift_cap < min_half.scaled(1, 4));
        }
    }
}
