//! Building and running a complete synchro-tokens system.
//!
//! [`SystemBuilder`] turns a validated [`SystemSpec`] plus per-SB
//! [`SyncLogic`] into a wired simulation: one stoppable clock and wrapper
//! per SB, one self-timed FIFO per channel, token wires per ring.
//! [`System`] then drives the simulation and exposes every observable the
//! experiments need (I/O traces, cycle counts, node phases, FIFO and
//! clock statistics).

use crate::checkpoint::{
    config_hash, encode_event_payload, Checkpoint, CheckpointBackend, CheckpointError,
    DecodedCheckpoint, EventStateDump,
};
use crate::drive::{drive, ChunkRule, Drive};
use crate::faults::{AnalogDelayModel, FaultInjector, FaultPlan};
use crate::iotrace::SbIoTrace;
use crate::logic::{IdleLogic, SyncLogic};
use crate::node::{NodeFsm, NodePhase};
use crate::spec::{ChannelId, RingId, SbId, SpecError, SystemSpec};
use crate::wrapper::{
    InputBinding, NodeBinding, NodeObserve, OutputBinding, SbWrapper, WrapperMode,
};
use st_channel::{FifoPorts, SelfTimedFifo};
use st_clocking::{StoppableClock, StoppableClockSpec};
use st_sim::prelude::*;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Constructs a runnable [`System`] from a [`SystemSpec`].
///
/// # Examples
///
/// See the crate-level documentation for a complete two-SB example.
pub struct SystemBuilder {
    pub(crate) spec: SystemSpec,
    pub(crate) logics: BTreeMap<usize, Box<dyn SyncLogic>>,
    pub(crate) seed: u64,
    pub(crate) trace_limit: usize,
    pub(crate) mode: WrapperMode,
    pub(crate) observe_nodes: bool,
    pub(crate) faults: Option<FaultPlan>,
}

impl std::fmt::Debug for SystemBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemBuilder")
            .field("sbs", &self.spec.sbs.len())
            .field("mode", &self.mode)
            .finish()
    }
}

impl SystemBuilder {
    /// Starts a builder over a validated spec.
    ///
    /// # Errors
    ///
    /// Returns the spec's first [`SpecError`], if any.
    pub fn new(spec: SystemSpec) -> Result<Self, SpecError> {
        spec.validate()?;
        Ok(SystemBuilder {
            spec,
            logics: BTreeMap::new(),
            seed: 0,
            trace_limit: 0,
            mode: WrapperMode::SynchroTokens,
            observe_nodes: false,
            faults: None,
        })
    }

    /// Attaches behaviour to an SB (default: [`IdleLogic`]).
    pub fn with_logic(self, sb: SbId, logic: impl SyncLogic) -> Self {
        self.with_boxed_logic(sb, Box::new(logic))
    }

    /// Attaches already-boxed behaviour (for logic factories).
    pub fn with_boxed_logic(mut self, sb: SbId, logic: Box<dyn SyncLogic>) -> Self {
        self.logics.insert(sb.0, logic);
        self
    }

    /// Seeds the kernel RNG (only bypass-mode metastability consumes it).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Caps each SB's I/O trace at `limit` cycles (0 = unlimited).
    pub fn with_trace_limit(mut self, limit: usize) -> Self {
        self.trace_limit = limit;
        self
    }

    /// Switches every wrapper to the nondeterministic bypass baseline.
    pub fn bypass(mut self, window: SimDuration) -> Self {
        self.mode = WrapperMode::Bypass { window };
        self
    }

    /// Attaches a fault plan: analog perturbations install a
    /// [`DelayModel`] over the clock/token/req/ack wires, protocol
    /// faults install a shared [`FaultInjector`] consulted at every
    /// transmit/acknowledge/token-pass. SEUs in the plan are *not*
    /// applied here — [`crate::faults::run_with_plan`] schedules them by
    /// local cycle at run time.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Exposes per-node `sbena` and counter values as traced signals
    /// (used to regenerate Figure 2); also traces clocks, enables and
    /// token wires.
    pub fn observe_nodes(mut self) -> Self {
        self.observe_nodes = true;
        self
    }

    /// Wires everything and returns the runnable system.
    pub fn build(mut self) -> System {
        let spec = self.spec.clone();
        let spec_hash = config_hash(&spec, self.seed, self.trace_limit, self.faults.as_ref());
        let mut b = SimBuilder::new().with_seed(self.seed);

        let mut analog_model = self
            .faults
            .as_ref()
            .filter(|p| p.analog.is_active())
            .map(|p| AnalogDelayModel::new(p.analog, p.seed));
        let injector = self
            .faults
            .as_ref()
            .filter(|p| !p.protocol.is_empty())
            .map(|p| {
                Rc::new(RefCell::new(FaultInjector::new(
                    p.protocol.clone(),
                    spec.rings.len(),
                    spec.channels.len(),
                )))
            });

        // Per-SB clock signals.
        let mut clk_sigs = Vec::new();
        let mut clken_sigs = Vec::new();
        for sb in &spec.sbs {
            let clk = b.add_bit_signal(&format!("{}.clk", sb.name));
            let clken = b.add_bit_signal(&format!("{}.clken", sb.name));
            if self.observe_nodes {
                b.trace(clk.id());
                b.trace(clken.id());
            }
            if let Some(m) = analog_model.as_mut() {
                m.classify_clk(clk.id(), clk_sigs.len() as u32);
            }
            clk_sigs.push(clk);
            clken_sigs.push(clken);
        }

        // Per-ring token wires: tok[i] = (into holder, into peer).
        let mut tok_sigs = Vec::new();
        for (i, ring) in spec.rings.iter().enumerate() {
            let to_holder = b.add_bit_signal_init(
                &format!("ring{i}.tok_to_{}", spec.sbs[ring.holder.0].name),
                Bit::Zero,
            );
            let to_peer = b.add_bit_signal_init(
                &format!("ring{i}.tok_to_{}", spec.sbs[ring.peer.0].name),
                Bit::Zero,
            );
            if self.observe_nodes {
                b.trace(to_holder.id());
                b.trace(to_peer.id());
            }
            if let Some(m) = analog_model.as_mut() {
                m.classify_token(to_holder.id(), (i * 2 + 1) as u32);
                m.classify_token(to_peer.id(), (i * 2) as u32);
            }
            tok_sigs.push((to_holder, to_peer));
        }

        // Per-channel FIFOs.
        let mut fifo_ports = Vec::new();
        let mut fifo_handles = Vec::new();
        for (i, ch) in spec.channels.iter().enumerate() {
            let name = format!(
                "ch{i}.{}to{}",
                spec.sbs[ch.from.0].name, spec.sbs[ch.to.0].name
            );
            let ports = FifoPorts::declare(&mut b, &name);
            let h = SelfTimedFifo::new(ports, ch.fifo_depth, ch.stage_delay).install(&mut b, &name);
            if let Some(m) = analog_model.as_mut() {
                m.classify_data(ports.put_req.id(), (i * 2) as u32);
                m.classify_data(ports.get_ack.id(), (i * 2 + 1) as u32);
            }
            fifo_ports.push(ports);
            fifo_handles.push(h);
        }

        // Per-SB wrapper + clock.
        let mut wrappers = Vec::new();
        let mut clocks = Vec::new();
        let mut observes: Vec<Vec<(RingId, NodeObserve)>> = vec![Vec::new(); spec.sbs.len()];
        for (i, sb_spec) in spec.sbs.iter().enumerate() {
            let sb = SbId(i);
            // Nodes for every ring touching this SB.
            let mut nodes = Vec::new();
            let mut node_index = BTreeMap::new();
            for (ring_id, ring) in spec.rings_of(sb) {
                let holder_side = ring.holder == sb;
                let fsm = if holder_side {
                    NodeFsm::new_holder(ring.holder_node)
                } else {
                    let initial = ring.peer_initial_recycle.unwrap_or(ring.peer_node.recycle);
                    NodeFsm::new_waiter(ring.peer_node, initial)
                };
                let (to_holder, to_peer) = tok_sigs[ring_id.0];
                let (token_in, peer_token_in, pass_delay) = if holder_side {
                    (to_holder, to_peer, ring.delay_fwd)
                } else {
                    (to_peer, to_holder, ring.delay_back)
                };
                let mut binding = NodeBinding::new(
                    ring_id,
                    fsm,
                    token_in,
                    peer_token_in,
                    pass_delay,
                    // This node's outgoing passes travel toward the
                    // holder iff it sits on the peer side.
                    !holder_side,
                );
                if self.observe_nodes {
                    let prefix = format!("{}.{ring_id}", sb_spec.name);
                    let obs = NodeObserve {
                        sbena: b.add_bit_signal(&format!("{prefix}.sbena")),
                        hold_ctr: b.add_word_signal(&format!("{prefix}.hold")),
                        recycle_ctr: b.add_word_signal(&format!("{prefix}.recycle")),
                    };
                    b.trace(obs.sbena.id());
                    b.trace(obs.hold_ctr.id());
                    b.trace(obs.recycle_ctr.id());
                    observes[i].push((ring_id, obs));
                    binding = binding.with_observe(obs);
                }
                node_index.insert(ring_id, nodes.len());
                nodes.push(binding);
            }

            // Channel endpoints in channel-id order.
            let mut inputs = Vec::new();
            for (cid, ch) in spec.inputs_of(sb) {
                inputs.push(InputBinding::new(
                    cid,
                    node_index[&ch.ring],
                    fifo_ports[cid.0],
                ));
            }
            let mut outputs = Vec::new();
            for (cid, ch) in spec.outputs_of(sb) {
                outputs.push(OutputBinding::new(
                    cid,
                    node_index[&ch.ring],
                    fifo_ports[cid.0],
                ));
            }

            let logic = self
                .logics
                .remove(&i)
                .unwrap_or_else(|| Box::new(IdleLogic));
            let mut wrapper = SbWrapper::new(
                sb,
                self.mode,
                logic,
                clk_sigs[i],
                clken_sigs[i],
                nodes,
                inputs,
                outputs,
                self.trace_limit,
            )
            .with_logic_delay(sb_spec.logic_delay);
            if let Some(inj) = &injector {
                wrapper = wrapper.with_faults(Rc::clone(inj));
            }
            let input_valid_sigs: Vec<SignalId> = spec
                .inputs_of(sb)
                .map(|(cid, _)| fifo_ports[cid.0].head_valid.id())
                .collect();
            let token_ins: Vec<SignalId> = spec
                .rings_of(sb)
                .map(|(rid, r)| {
                    let (to_holder, to_peer) = tok_sigs[rid.0];
                    if r.holder == sb {
                        to_holder.id()
                    } else {
                        to_peer.id()
                    }
                })
                .collect();
            let wh = b.add_component(&format!("{}.wrapper", sb_spec.name), wrapper);
            b.watch(wh.id(), clk_sigs[i].id());
            for t in token_ins {
                b.watch(wh.id(), t);
            }
            if matches!(self.mode, WrapperMode::Bypass { .. }) {
                for v in input_valid_sigs {
                    b.watch(wh.id(), v);
                }
            }
            wrappers.push(wh);

            let clock = StoppableClock::new(
                StoppableClockSpec::from_period(sb_spec.period),
                clk_sigs[i],
                clken_sigs[i],
            );
            let ch = b.add_component(&format!("{}.clock", sb_spec.name), clock);
            b.watch(ch.id(), clken_sigs[i].id());
            clocks.push(ch);
        }

        if let Some(m) = analog_model.take() {
            b.set_delay_model(Box::new(m));
        }

        System {
            sim: b.build(),
            spec,
            spec_hash,
            mode: self.mode,
            observe_nodes: self.observe_nodes,
            wrappers,
            clocks,
            fifos: fifo_handles,
        }
    }
}

/// How a [`System::run_until_cycles`] or [`System::run_to_verdict`] call
/// ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every SB reached the requested local cycle count.
    Reached,
    /// All clocks stopped with nothing in flight: the system deadlocked.
    /// Carries the SBs whose clocks were parked.
    Deadlock {
        /// The stalled SBs.
        stopped: Vec<SbId>,
    },
    /// The wall-clock budget ran out before either of the above.
    TimedOut,
}

/// A built synchro-tokens system, ready to simulate.
pub struct System {
    sim: Simulator,
    spec: SystemSpec,
    spec_hash: [u8; 16],
    mode: WrapperMode,
    observe_nodes: bool,
    wrappers: Vec<Handle<SbWrapper>>,
    clocks: Vec<Handle<StoppableClock>>,
    fifos: Vec<Handle<SelfTimedFifo>>,
}

impl Drive for System {
    fn now(&self) -> SimTime {
        self.sim.now()
    }

    fn min_cycles(&self) -> u64 {
        System::min_cycles(self)
    }

    fn run_chunk(&mut self, until: SimTime) -> Result<bool, SimError> {
        Ok(self.sim.run_until(until)?.quiescent)
    }

    fn stopped_sbs(&self) -> Vec<SbId> {
        System::stopped_sbs(self)
    }
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("sbs", &self.spec.sbs.len())
            .field("now", &self.sim.now())
            .finish()
    }
}

impl System {
    /// The specification this system was built from.
    pub fn spec(&self) -> &SystemSpec {
        &self.spec
    }

    /// Runs for a span of simulated time.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors (combinational loops).
    pub fn run_for(&mut self, span: SimDuration) -> Result<RunSummary, SimError> {
        self.sim.run_for(span)
    }

    /// Runs until every SB has executed at least `cycles` local cycles,
    /// deadlock is detected, or `max_time` of simulated time elapses,
    /// checked after each chunk of `max_period × max(cycles, 16)`
    /// measured from the current time.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors (combinational loops).
    pub fn run_until_cycles(
        &mut self,
        cycles: u64,
        max_time: SimDuration,
    ) -> Result<RunOutcome, SimError> {
        let rule = ChunkRule::new(&self.spec, cycles, None);
        drive(self, rule, self.sim.now() + max_time, None)
    }

    /// A verdict run: the same [`RunOutcome`] and byte-identical I/O
    /// traces as [`run_until_cycles`](Self::run_until_cycles), but the
    /// end state (time, cycles past the target, statistics, event
    /// counts) is unspecified. When the trace limit lies in
    /// `1..=cycles` it stops as soon as every trace is final; otherwise
    /// it is `run_until_cycles` verbatim.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors (combinational loops).
    pub fn run_to_verdict(
        &mut self,
        cycles: u64,
        max_time: SimDuration,
    ) -> Result<RunOutcome, SimError> {
        let limit = self
            .wrappers
            .first()
            .map_or(0, |w| self.sim.get(*w).trace().limit());
        let rule = ChunkRule::new(&self.spec, cycles, Some(limit));
        drive(self, rule, self.sim.now() + max_time, None)
    }

    fn min_cycles(&self) -> u64 {
        self.wrappers
            .iter()
            .map(|w| self.sim.get(*w).cycles())
            .min()
            .unwrap_or(0)
    }

    /// Local cycles elapsed in `sb`.
    pub fn cycles(&self, sb: SbId) -> u64 {
        self.sim.get(self.wrappers[sb.0]).cycles()
    }

    /// The I/O trace of `sb`.
    pub fn io_trace(&self, sb: SbId) -> &SbIoTrace {
        self.sim.get(self.wrappers[sb.0]).trace()
    }

    /// The final state of `sb`'s logic, downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the logic attached to `sb` is not a `T`.
    pub fn logic<T: SyncLogic>(&self, sb: SbId) -> &T {
        self.sim
            .get(self.wrappers[sb.0])
            .logic_any()
            .downcast_ref::<T>()
            .expect("logic type mismatch")
    }

    /// Mutable access to `sb`'s logic (deterministic debug/state
    /// injection, e.g. scan-in after a breakpoint).
    ///
    /// # Panics
    ///
    /// Panics if the logic attached to `sb` is not a `T`.
    pub fn logic_mut<T: SyncLogic>(&mut self, sb: SbId) -> &mut T {
        self.sim
            .get_mut(self.wrappers[sb.0])
            .logic_any_mut()
            .downcast_mut::<T>()
            .expect("logic type mismatch")
    }

    /// Rewrites the hold/recycle registers of `sb`'s node on `ring`
    /// (the §4.2 scan-accessible registers). Takes effect at the next
    /// counter preset.
    ///
    /// # Panics
    ///
    /// Panics if `sb` has no node on `ring`.
    pub fn set_node_params(&mut self, sb: SbId, ring: RingId, params: crate::spec::NodeParams) {
        self.sim
            .get_mut(self.wrappers[sb.0])
            .node_mut(ring)
            .expect("sb has no node on that ring")
            .set_params(params);
    }

    /// The phase of `sb`'s node on `ring`, if it has one.
    pub fn node_phase(&self, sb: SbId, ring: RingId) -> Option<NodePhase> {
        self.sim
            .get(self.wrappers[sb.0])
            .node(ring)
            .map(NodeFsm::phase)
    }

    /// The node FSM itself (token statistics etc.).
    pub fn node(&self, sb: SbId, ring: RingId) -> Option<&NodeFsm> {
        self.sim.get(self.wrappers[sb.0]).node(ring)
    }

    /// Mutable node access (debug hooks, SEU injection).
    pub fn node_mut(&mut self, sb: SbId, ring: RingId) -> Option<&mut NodeFsm> {
        self.sim.get_mut(self.wrappers[sb.0]).node_mut(ring)
    }

    /// SBs whose clocks are currently parked.
    pub fn stopped_sbs(&self) -> Vec<SbId> {
        self.clocks
            .iter()
            .enumerate()
            .filter(|(_, c)| self.sim.get(**c).is_parked())
            .map(|(i, _)| SbId(i))
            .collect()
    }

    /// Clock statistics: (rising edges, synchronous stops) of `sb`.
    pub fn clock_stats(&self, sb: SbId) -> (u64, u64) {
        let c = self.sim.get(self.clocks[sb.0]);
        (c.edges(), c.stops())
    }

    /// FIFO statistics for `channel`: (pushes, pops, overruns, underruns).
    pub fn fifo_stats(&self, channel: ChannelId) -> (u64, u64, u64, u64) {
        let f = self.sim.get(self.fifos[channel.0]);
        (f.pushes(), f.pops(), f.overruns(), f.underruns())
    }

    /// Words the logic of `sb` attempted to send on blocked channels.
    pub fn dropped_words(&self, sb: SbId) -> u64 {
        self.sim.get(self.wrappers[sb.0]).dropped_words()
    }

    /// Bypass-mode metastable samples taken in `sb`'s wrapper.
    pub fn metastable_samples(&self, sb: SbId) -> u64 {
        self.sim.get(self.wrappers[sb.0]).metastable_samples()
    }

    /// Setup-time violations taken by `sb` (clocked faster than its
    /// modelled critical path).
    pub fn timing_violations(&self, sb: SbId) -> u64 {
        self.sim.get(self.wrappers[sb.0]).timing_violations()
    }

    /// Engages or releases the §4.2 indefinite-hold debug hook on every
    /// node of `sb` — the "holding tokens indefinitely in the Test SB"
    /// mechanism behind deterministic breakpoints.
    pub fn set_hold_tokens(&mut self, sb: SbId, on: bool) {
        self.sim
            .get_mut(self.wrappers[sb.0])
            .set_hold_all_tokens(on);
    }

    /// Wall-clock times of `sb`'s rising edges, indexed by local cycle
    /// (capped at the trace limit). Used by latency measurements.
    pub fn edge_times(&self, sb: SbId) -> &[SimTime] {
        self.sim.get(self.wrappers[sb.0]).edge_times()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The underlying simulator (waveforms, raw signals).
    pub fn sim(&self) -> &Simulator {
        &self.sim
    }

    /// Mutable access to the underlying simulator (stimulus injection).
    pub fn sim_mut(&mut self) -> &mut Simulator {
        &mut self.sim
    }

    /// The configuration content key this system (and its checkpoints)
    /// are bound to.
    pub fn spec_hash(&self) -> [u8; 16] {
        self.spec_hash
    }

    fn checkpoint_gate(&self) -> Result<(), CheckpointError> {
        if !matches!(self.mode, WrapperMode::SynchroTokens) {
            return Err(CheckpointError::Unsupported(
                "bypass mode draws kernel RNG per metastable sample",
            ));
        }
        if self.observe_nodes {
            return Err(CheckpointError::Unsupported(
                "observed builds fill the waveform trace buffer",
            ));
        }
        Ok(())
    }

    /// Freezes the complete engine state into a canonical
    /// [`Checkpoint`].
    ///
    /// Only supported in synchro-tokens mode without node observability
    /// (the deterministic envelope — kernel RNG untouched, waveform
    /// buffer empty) and when every attached logic implements
    /// [`SyncLogic::save_state`](crate::logic::SyncLogic::save_state).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Unsupported`] outside that envelope.
    pub fn checkpoint(&self) -> Result<Checkpoint, CheckpointError> {
        self.checkpoint_gate()?;
        let mut wrappers = Vec::with_capacity(self.wrappers.len());
        for w in &self.wrappers {
            wrappers.push(
                self.sim
                    .get(*w)
                    .snapshot()
                    .ok_or(CheckpointError::Unsupported(
                        "attached logic does not implement save_state",
                    ))?,
            );
        }
        let clocks = self
            .clocks
            .iter()
            .map(|c| self.sim.get(*c).snapshot())
            .collect();
        let fifos = self
            .fifos
            .iter()
            .map(|f| self.sim.get(*f).snapshot())
            .collect();
        let injector = self
            .wrappers
            .first()
            .and_then(|w| self.sim.get(*w).faults_rc())
            .map(|rc| rc.borrow().snapshot_counters());
        let dump = EventStateDump {
            kernel: self.sim.snapshot_kernel(),
            wrappers,
            clocks,
            fifos,
            injector,
        };
        Ok(Checkpoint::new(
            CheckpointBackend::Event,
            self.spec_hash,
            self.min_cycles(),
            self.sim.now(),
            encode_event_payload(&dump),
        ))
    }

    /// Reconstructs a running system from `checkpoint`, using a builder
    /// configured **identically** to the one that produced it. The
    /// builder's configuration hash is checked against the checkpoint's;
    /// continuation from the restored state is byte-identical to a
    /// straight run.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::BackendMismatch`] for compiled-backend
    /// checkpoints, [`CheckpointError::SpecMismatch`] when the builder
    /// differs from the originating configuration,
    /// [`CheckpointError::Corrupt`] for malformed payload bytes.
    pub fn resume(
        builder: SystemBuilder,
        checkpoint: &Checkpoint,
    ) -> Result<System, CheckpointError> {
        if checkpoint.backend() != CheckpointBackend::Event {
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
    ) -> Result<System, CheckpointError> {
        let crate::checkpoint::DecodedState::Event(dump) = &checkpoint.state else {
            return Err(CheckpointError::BackendMismatch);
        };
        let hash = config_hash(
            &builder.spec,
            builder.seed,
            builder.trace_limit,
            builder.faults.as_ref(),
        );
        if hash != checkpoint.spec_hash() {
            return Err(CheckpointError::SpecMismatch);
        }
        let mut sys = builder.build();
        sys.checkpoint_gate()?;
        if !sys.sim.restore_kernel(&dump.kernel) {
            return Err(CheckpointError::SpecMismatch);
        }
        if dump.wrappers.len() != sys.wrappers.len()
            || dump.clocks.len() != sys.clocks.len()
            || dump.fifos.len() != sys.fifos.len()
        {
            return Err(CheckpointError::SpecMismatch);
        }
        for (h, snap) in sys.wrappers.iter().zip(&dump.wrappers) {
            if !sys.sim.get_mut(*h).restore(snap) {
                return Err(CheckpointError::SpecMismatch);
            }
        }
        for (h, &(parked, edges, stops)) in sys.clocks.iter().zip(&dump.clocks) {
            sys.sim.get_mut(*h).restore(parked, edges, stops);
        }
        for (h, snap) in sys.fifos.iter().zip(&dump.fifos) {
            if !sys.sim.get_mut(*h).restore(snap) {
                return Err(CheckpointError::SpecMismatch);
            }
        }
        let rc = sys
            .wrappers
            .first()
            .and_then(|w| sys.sim.get(*w).faults_rc())
            .cloned();
        match (&dump.injector, rc) {
            (None, None) => {}
            (Some((tok, push, ack)), Some(rc)) => {
                if !rc.borrow_mut().restore_counters(tok, push, ack) {
                    return Err(CheckpointError::SpecMismatch);
                }
            }
            _ => return Err(CheckpointError::SpecMismatch),
        }
        Ok(sys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic::{SequenceSource, SinkCollect};
    use crate::spec::NodeParams;

    /// A comfortable producer → consumer pair:
    /// hold 4, recycle 12, ring delay 30ns, FIFO depth 4, F = 1ns.
    fn pair_spec() -> SystemSpec {
        let mut s = SystemSpec::default();
        let a = s.add_sb("tx", SimDuration::ns(10));
        let b = s.add_sb("rx", SimDuration::ns(10));
        let r = s.add_ring(a, b, NodeParams::new(4, 12), SimDuration::ns(30));
        s.add_channel(a, b, r, 16, 4, SimDuration::ns(1));
        s
    }

    fn build_pair() -> System {
        SystemBuilder::new(pair_spec())
            .expect("valid spec")
            .with_logic(SbId(0), SequenceSource::new(100, 1))
            .with_logic(SbId(1), SinkCollect::new())
            .build()
    }

    #[test]
    fn words_flow_in_order_across_the_pair() {
        let mut sys = build_pair();
        let out = sys.run_until_cycles(200, SimDuration::us(100)).unwrap();
        assert_eq!(out, RunOutcome::Reached);
        let sink: &SinkCollect = sys.logic(SbId(1));
        let words = sink.words_on(0);
        assert!(words.len() >= 8, "got {} words", words.len());
        let expect: Vec<u64> = (100..100 + words.len() as u64).collect();
        assert_eq!(words, expect, "in order, none lost or duplicated");
        let (pushes, pops, over, under) = sys.fifo_stats(ChannelId(0));
        assert_eq!(over, 0);
        assert_eq!(under, 0);
        assert_eq!(pushes, pops + sys.sim.get(sys.fifos[0]).occupancy() as u64);
    }

    #[test]
    fn token_alternates_between_nodes() {
        let mut sys = build_pair();
        sys.run_until_cycles(100, SimDuration::us(100)).unwrap();
        let a = sys.node(SbId(0), RingId(0)).unwrap();
        let b = sys.node(SbId(1), RingId(0)).unwrap();
        assert!(a.passes() >= 3);
        // Passes alternate: counts differ by at most one.
        assert!(a.passes().abs_diff(b.passes()) <= 1);
    }

    #[test]
    fn clock_stops_when_ring_delay_exceeds_recycle() {
        let mut spec = pair_spec();
        // Stretch the ring so the token is always late.
        spec.rings[0].delay_fwd = SimDuration::us(1);
        spec.rings[0].delay_back = SimDuration::us(1);
        let mut sys = SystemBuilder::new(spec)
            .unwrap()
            .with_logic(SbId(0), SequenceSource::new(0, 1))
            .with_logic(SbId(1), SinkCollect::new())
            .build();
        sys.run_until_cycles(50, SimDuration::us(300)).unwrap();
        let (_, stops_tx) = sys.clock_stats(SbId(0));
        assert!(stops_tx > 0, "late tokens must stop the clock");
    }

    #[test]
    fn io_schedule_is_identical_under_delay_scaling() {
        // The core determinism property, in miniature: scale the ring
        // delay and the FIFO stage delay; the sink's I/O trace (in local
        // cycles) must not change.
        let run = |ring_pct: u64, f_pct: u64| {
            let mut spec = pair_spec();
            spec.rings[0].delay_fwd = spec.rings[0].delay_fwd.percent(ring_pct);
            spec.rings[0].delay_back = spec.rings[0].delay_back.percent(ring_pct);
            spec.channels[0].stage_delay = spec.channels[0].stage_delay.percent(f_pct);
            let mut sys = SystemBuilder::new(spec)
                .unwrap()
                .with_logic(SbId(0), SequenceSource::new(7, 3))
                .with_logic(SbId(1), SinkCollect::new())
                .with_trace_limit(100)
                .build();
            sys.run_until_cycles(100, SimDuration::us(200)).unwrap();
            (
                sys.io_trace(SbId(0)).digest(),
                sys.io_trace(SbId(1)).digest(),
            )
        };
        let nominal = run(100, 100);
        for (rp, fp) in [(50, 100), (200, 100), (100, 50), (100, 200), (200, 200)] {
            assert_eq!(run(rp, fp), nominal, "ring {rp}%, F {fp}% diverged");
        }
    }

    #[test]
    fn bypass_mode_runs_and_sees_metastability() {
        let mut sys = SystemBuilder::new(pair_spec())
            .unwrap()
            .with_logic(SbId(0), SequenceSource::new(0, 1))
            .with_logic(SbId(1), SinkCollect::new())
            .bypass(SimDuration::ps(200))
            .with_seed(3)
            .build();
        let out = sys.run_until_cycles(200, SimDuration::us(100)).unwrap();
        assert_eq!(out, RunOutcome::Reached);
        let (_, stops) = sys.clock_stats(SbId(1));
        assert_eq!(stops, 0, "bypass clocks never stop");
        let sink: &SinkCollect = sys.logic(SbId(1));
        assert!(!sink.received.is_empty(), "data still flows in bypass");
    }

    #[test]
    fn logic_type_mismatch_panics() {
        let sys = build_pair();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _: &SinkCollect = sys.logic(SbId(0)); // actually a source
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn invalid_spec_is_rejected_at_build() {
        let mut s = pair_spec();
        s.channels[0].bits = 0;
        assert!(SystemBuilder::new(s).is_err());
    }
}
