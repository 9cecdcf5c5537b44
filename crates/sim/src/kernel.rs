//! The simulation kernel: signals, scheduling, and the run loop.
//!
//! # Determinism
//!
//! The kernel is single-threaded and breaks every tie explicitly: events at
//! the same timestamp fire in scheduling order, and components woken in the
//! same delta step are woken in the order the triggering events fired.
//! The only randomness available to models is the seeded [`Ctx::rng`].
//! Two runs with the same build sequence and seed produce bit-identical
//! traces — nondeterminism in *modelled hardware* (synchronizers, arbiters)
//! is expressed as sensitivity to model parameters, exactly the kind of
//! variation the paper's experiments sweep.
//!
//! # Examples
//!
//! ```
//! use st_sim::prelude::*;
//!
//! /// Toggles `out` forever with the given half period.
//! struct Toggler { out: BitSignal, half: SimDuration }
//! impl Component for Toggler {
//!     fn wake(&mut self, ctx: &mut Ctx<'_>, cause: Wake) {
//!         match cause {
//!             Wake::Start | Wake::Timer(_) => {
//!                 let next = !ctx.bit(self.out);
//!                 ctx.drive_bit(self.out, next, SimDuration::ZERO);
//!                 ctx.set_timer(self.half, 0);
//!             }
//!             _ => {}
//!         }
//!     }
//! }
//!
//! # fn main() -> Result<(), st_sim::SimError> {
//! let mut b = SimBuilder::new();
//! let clk = b.add_bit_signal_init("clk", Bit::Zero);
//! b.add_component("osc", Toggler { out: clk, half: SimDuration::ns(5) });
//! let mut sim = b.build();
//! sim.run_until(SimTime::ZERO + SimDuration::ns(42))?;
//! assert_eq!(sim.bit(clk), Bit::One); // toggles at 0,5,...,40: nine in total
//! # Ok(())
//! # }
//! ```

use crate::component::{Component, ComponentId, Handle, Wake};
use crate::event::{EventKind, EventQueue};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::trace::TraceBuffer;
use crate::value::{Bit, Value};
use std::any::Any;
use std::fmt;

/// Maximum zero-delay (delta) iterations permitted at a single timestamp
/// before the kernel reports a combinational loop.
const MAX_DELTAS: u32 = 10_000;

/// Identifies a signal (net) in the simulated design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SignalId(u32);

impl SignalId {
    pub(crate) const fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from its raw index (checkpoint deserialization; ids
    /// are only meaningful against the simulator they were minted by).
    pub const fn from_raw(raw: u32) -> Self {
        SignalId(raw)
    }

    /// The raw index (checkpoint serialization).
    pub const fn as_raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for SignalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A typed handle to a single-bit signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BitSignal(SignalId);

impl BitSignal {
    /// The untyped signal id.
    pub fn id(self) -> SignalId {
        self.0
    }
}

/// A typed handle to a data-word signal (up to 64 bits of bundled data).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WordSignal(SignalId);

impl WordSignal {
    /// The untyped signal id.
    pub fn id(self) -> SignalId {
        self.0
    }
}

#[derive(Debug)]
struct SignalState {
    name: Box<str>,
    value: Value,
    /// Set at build time when the signal is enabled for tracing; lets the
    /// hot loop skip the trace-buffer call entirely for untraced signals.
    traced: bool,
    watchers: Vec<ComponentId>,
}

struct ComponentSlot {
    name: Box<str>,
    comp: Option<Box<dyn Component>>,
}

impl fmt::Debug for ComponentSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ComponentSlot")
            .field("name", &self.name)
            .field("present", &self.comp.is_some())
            .finish()
    }
}

/// Errors reported by the run loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Zero-delay events kept firing at one timestamp; the model contains a
    /// combinational loop (e.g. an undelayed ring).
    CombinationalLoop {
        /// The timestamp at which the loop was detected.
        time: SimTime,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::CombinationalLoop { time } => {
                write!(f, "combinational loop detected at t={time}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Statistics for a completed run segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunSummary {
    /// Events fired during this run segment.
    pub events_fired: u64,
    /// Component wake calls delivered.
    pub wakes: u64,
    /// Simulation time at the end of the segment.
    pub end_time: SimTime,
    /// True if the run ended because the event queue drained.
    pub quiescent: bool,
}

/// A hook that perturbs the latency of scheduled signal drives.
///
/// The kernel consults the installed model once per drive, *at the
/// moment the drive is scheduled*, and uses the returned duration in
/// place of the nominal one. Timers ([`Ctx::set_timer`]) are never
/// perturbed — they model a component's internal bookkeeping, not a
/// physical wire. A model must be deterministic in its inputs and call
/// history to keep seeded runs reproducible; the fault-injection layer
/// in the core crate builds its analog jitter/drift models on top of
/// this hook.
pub trait DelayModel {
    /// Returns the delay to use for a drive of `value` onto `sig`,
    /// scheduled at `now` with nominal latency `nominal`.
    fn perturb(
        &mut self,
        sig: SignalId,
        value: &Value,
        now: SimTime,
        nominal: SimDuration,
    ) -> SimDuration;

    /// Serializes the model's mutable call-history state (occurrence
    /// counters and the like) for checkpointing. Stateless models return
    /// an empty vector (the default).
    fn snapshot_state(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restores state captured by [`DelayModel::snapshot_state`].
    /// Returns false if the bytes are not understood (the default
    /// accepts only an empty snapshot).
    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        bytes.is_empty()
    }
}

/// A pending event in serializable form (public mirror of the internal
/// queue entry). Ids are raw indices into the owning simulator's signal
/// and component tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelEvent {
    /// Absolute fire time.
    pub time: SimTime,
    /// Scheduling sequence number (total order within one instant).
    pub seq: u64,
    /// What fires.
    pub kind: KernelEventKind,
}

/// Serializable event payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelEventKind {
    /// Set a signal to a value.
    Drive {
        /// Target signal.
        sig: SignalId,
        /// Value to apply.
        value: Value,
    },
    /// Wake a component with `Wake::Timer(tag)`.
    Timer {
        /// Target component.
        comp: ComponentId,
        /// The tag the component passed to `set_timer`.
        tag: u64,
    },
}

/// A full snapshot of the kernel's dynamic state (signals, pending
/// events, counters) at an instant between run segments.
///
/// The snapshot intentionally excludes the RNG and the waveform trace
/// buffer: it is only valid for workloads that draw no randomness and
/// trace no signals (the caller is expected to gate on that — the
/// synchro-tokens deterministic mode qualifies). Component state is
/// also *not* included; components checkpoint themselves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelSnapshot {
    /// Simulation time at capture.
    pub now: SimTime,
    /// Whether `Wake::Start` has already been delivered.
    pub started: bool,
    /// Next event sequence number.
    pub next_seq: u64,
    /// Total events ever scheduled.
    pub scheduled_total: u64,
    /// Total events fired.
    pub events_fired: u64,
    /// Total component wakes delivered.
    pub wakes: u64,
    /// Every signal's current value, indexed by raw signal id.
    pub signals: Vec<Value>,
    /// Pending events sorted by `(time, seq)`.
    pub events: Vec<KernelEvent>,
    /// Installed delay model's mutable state (empty when none).
    pub delay_model: Vec<u8>,
}

/// Everything the kernel owns apart from the component boxes.
///
/// Splitting this out lets [`Ctx`] borrow the world mutably while one
/// component is temporarily removed from the arena and being woken.
struct Inner {
    signals: Vec<SignalState>,
    queue: EventQueue,
    now: SimTime,
    rng: SimRng,
    trace: TraceBuffer,
    stop_requested: bool,
    events_fired: u64,
    wakes: u64,
    /// Reusable wake-batch buffer (hoisted out of the delta loop so the
    /// steady state allocates nothing per delta).
    wake_scratch: Vec<(ComponentId, Wake)>,
    /// Per-signal batch marks: `sig_mark[s] == batch_epoch` means signal
    /// `s` already queued its watchers in the current delta batch, so a
    /// second value change in the same batch must not queue them again
    /// (the pending wakes observe the final value either way).
    sig_mark: Vec<u64>,
    batch_epoch: u64,
    /// True when at least one signal is traced. Hoisted out of the drive
    /// hot path: the common no-tracing run skips the per-signal `traced`
    /// check on every value change.
    any_traced: bool,
    /// Optional per-drive latency perturbation (fault injection). `None`
    /// in ordinary runs, so the hot path pays one branch.
    delay_model: Option<Box<dyn DelayModel>>,
}

impl Inner {
    fn value(&self, sig: SignalId) -> Value {
        self.signals[sig.index()].value
    }

    fn schedule_drive(&mut self, sig: SignalId, value: Value, delay: SimDuration) {
        let delay = match self.delay_model.as_mut() {
            Some(m) => m.perturb(sig, &value, self.now, delay),
            None => delay,
        };
        self.queue
            .schedule(self.now + delay, EventKind::Drive { sig, value });
    }

    /// Applies one drive event: updates the signal, records the trace
    /// (only when `any_traced`, pre-checked once per run instead of per
    /// drive) and queues the watchers once per signal per batch.
    #[inline]
    fn apply_drive(
        &mut self,
        t: SimTime,
        sig: SignalId,
        value: Value,
        epoch: u64,
        any_traced: bool,
        wake_list: &mut Vec<(ComponentId, Wake)>,
    ) {
        let st = &mut self.signals[sig.index()];
        if st.value == value {
            return;
        }
        st.value = value;
        if any_traced && st.traced {
            self.trace.record(t, sig, value);
        }
        // If this signal already queued its watchers in this batch, the
        // pending wakes will observe the final value — don't queue
        // duplicates.
        let mark = &mut self.sig_mark[sig.index()];
        if *mark != epoch {
            *mark = epoch;
            for w in &st.watchers {
                wake_list.push((*w, Wake::Signal(sig)));
            }
        }
    }
}

/// The component-facing view of the kernel, passed to [`Component::wake`].
pub struct Ctx<'a> {
    inner: &'a mut Inner,
    me: ComponentId,
}

impl<'a> Ctx<'a> {
    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.inner.now
    }

    /// The id of the component being woken.
    pub fn me(&self) -> ComponentId {
        self.me
    }

    /// Reads a bit signal.
    ///
    /// # Panics
    ///
    /// Panics if the signal currently holds a word value (shape misuse is a
    /// model bug, not a runtime condition).
    pub fn bit(&self, sig: BitSignal) -> Bit {
        self.inner
            .value(sig.id())
            .as_bit()
            .expect("bit signal holds a word value")
    }

    /// Reads a word signal; `None` while the bus is undriven (`WordX`).
    pub fn word(&self, sig: WordSignal) -> Option<u64> {
        match self.inner.value(sig.id()) {
            Value::Word(w) => Some(w),
            Value::WordX => None,
            Value::Bit(_) => panic!("word signal holds a bit value"),
        }
    }

    /// Reads any signal's raw value.
    pub fn value(&self, sig: SignalId) -> Value {
        self.inner.value(sig)
    }

    /// Schedules a bit transition after `delay` (transport semantics).
    pub fn drive_bit(&mut self, sig: BitSignal, v: impl Into<Bit>, delay: SimDuration) {
        self.inner
            .schedule_drive(sig.id(), Value::Bit(v.into()), delay);
    }

    /// Schedules a word transition after `delay` (transport semantics).
    pub fn drive_word(&mut self, sig: WordSignal, v: u64, delay: SimDuration) {
        self.inner.schedule_drive(sig.id(), Value::Word(v), delay);
    }

    /// Toggles a bit signal after `delay`, based on its *current* value.
    ///
    /// Transition-signalling (two-phase) handshakes and token passes are
    /// expressed as toggles.
    pub fn toggle_bit(&mut self, sig: BitSignal, delay: SimDuration) {
        let next = match self.bit(sig) {
            Bit::X => Bit::One,
            b => !b,
        };
        self.drive_bit(sig, next, delay);
    }

    /// Wakes this component again after `delay` with `Wake::Timer(tag)`.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) {
        self.inner.queue.schedule(
            self.inner.now + delay,
            EventKind::Timer { comp: self.me, tag },
        );
    }

    /// The kernel's seeded random-number generator.
    ///
    /// Used only to resolve modelled metastability; see the crate docs for
    /// the determinism contract.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.inner.rng
    }

    /// Requests that the run loop stop after the current delta step.
    pub fn stop(&mut self) {
        self.inner.stop_requested = true;
    }
}

/// Constructs a [`Simulator`]: declare signals, register components, wire
/// up sensitivity lists, then [`build`](SimBuilder::build).
#[derive(Default)]
pub struct SimBuilder {
    signals: Vec<SignalState>,
    comps: Vec<ComponentSlot>,
    traced: Vec<SignalId>,
    seed: u64,
    delay_model: Option<Box<dyn DelayModel>>,
}

impl fmt::Debug for SimBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimBuilder")
            .field("signals", &self.signals.len())
            .field("components", &self.comps.len())
            .finish()
    }
}

impl SimBuilder {
    /// Creates an empty builder (seed 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the seed for the kernel RNG (metastability resolution).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Installs a [`DelayModel`] that perturbs every scheduled signal
    /// drive. At most one model is active; a second call replaces the
    /// first.
    pub fn set_delay_model(&mut self, model: Box<dyn DelayModel>) {
        self.delay_model = Some(model);
    }

    fn add_signal(&mut self, name: &str, value: Value) -> SignalId {
        let id = SignalId(u32::try_from(self.signals.len()).expect("too many signals"));
        self.signals.push(SignalState {
            name: name.into(),
            value,
            traced: false,
            watchers: Vec::new(),
        });
        id
    }

    /// Declares a bit signal, initialized to `X`.
    pub fn add_bit_signal(&mut self, name: &str) -> BitSignal {
        BitSignal(self.add_signal(name, Value::Bit(Bit::X)))
    }

    /// Declares a bit signal with a defined reset value.
    pub fn add_bit_signal_init(&mut self, name: &str, init: Bit) -> BitSignal {
        BitSignal(self.add_signal(name, Value::Bit(init)))
    }

    /// Declares a word signal, initialized to `WordX`.
    pub fn add_word_signal(&mut self, name: &str) -> WordSignal {
        WordSignal(self.add_signal(name, Value::WordX))
    }

    /// Declares a word signal with a defined reset value.
    pub fn add_word_signal_init(&mut self, name: &str, init: u64) -> WordSignal {
        WordSignal(self.add_signal(name, Value::Word(init)))
    }

    /// Registers a component and returns a typed handle for later
    /// inspection with [`Simulator::get`].
    pub fn add_component<T: Component>(&mut self, name: &str, comp: T) -> Handle<T> {
        let id =
            ComponentId::from_raw(u32::try_from(self.comps.len()).expect("too many components"));
        self.comps.push(ComponentSlot {
            name: name.into(),
            comp: Some(Box::new(comp)),
        });
        Handle::new(id)
    }

    /// Makes `comp` sensitive to value changes on `sig`.
    ///
    /// Duplicate registrations are tolerated; they collapse into a single
    /// sensitivity entry at [`build`](SimBuilder::build) time (insertion
    /// order preserved), so structural netlist builders can register
    /// freely without quadratic membership scans here.
    pub fn watch(&mut self, comp: ComponentId, sig: SignalId) {
        self.signals[sig.index()].watchers.push(comp);
    }

    /// Enables waveform tracing for a signal (records every change).
    ///
    /// Duplicate requests collapse at build time, like
    /// [`watch`](SimBuilder::watch).
    pub fn trace(&mut self, sig: SignalId) {
        self.traced.push(sig);
    }

    /// Finishes construction. Components receive `Wake::Start` in
    /// registration order when the run loop first executes.
    pub fn build(mut self) -> Simulator {
        // Dedupe watcher lists in one pass, preserving first-occurrence
        // order. Epoch marking avoids reallocating the seen-set per
        // signal; component ids outside the arena (stale handles) are
        // left as-is — `deliver` already ignores them.
        let mut seen = vec![0u32; self.comps.len()];
        for (i, st) in self.signals.iter_mut().enumerate() {
            let epoch = i as u32 + 1;
            st.watchers.retain(|c| match seen.get_mut(c.index()) {
                Some(mark) if *mark == epoch => false,
                Some(mark) => {
                    *mark = epoch;
                    true
                }
                None => true,
            });
        }
        // Dedupe the traced list the same way.
        let mut traced_seen = vec![false; self.signals.len()];
        self.traced.retain(|s| {
            let mark = &mut traced_seen[s.index()];
            !std::mem::replace(mark, true)
        });
        let n_signals = self.signals.len();
        let mut trace = TraceBuffer::new();
        for sig in &self.traced {
            let st = &mut self.signals[sig.index()];
            st.traced = true;
            // Names are cloned only for traced signals.
            trace.enable(*sig, st.name.clone());
        }
        // Record initial values of traced signals at t=0.
        for sig in &self.traced {
            trace.record(SimTime::ZERO, *sig, self.signals[sig.index()].value);
        }
        Simulator {
            comps: self.comps,
            inner: Inner {
                signals: self.signals,
                queue: EventQueue::new(),
                now: SimTime::ZERO,
                rng: SimRng::seed_from_u64(self.seed),
                trace,
                stop_requested: false,
                events_fired: 0,
                wakes: 0,
                wake_scratch: Vec::new(),
                sig_mark: vec![0; n_signals],
                batch_epoch: 0,
                any_traced: !self.traced.is_empty(),
                delay_model: self.delay_model,
            },
            started: false,
        }
    }
}

/// A built, runnable simulation.
pub struct Simulator {
    comps: Vec<ComponentSlot>,
    inner: Inner,
    started: bool,
}

impl fmt::Debug for Simulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.inner.now)
            .field("components", &self.comps.len())
            .field("signals", &self.inner.signals.len())
            .field("pending_events", &self.inner.queue.len())
            .finish()
    }
}

impl Simulator {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.inner.now
    }

    /// Reads a bit signal's current value.
    ///
    /// # Panics
    ///
    /// Panics if the signal holds a word value.
    pub fn bit(&self, sig: BitSignal) -> Bit {
        self.inner
            .value(sig.id())
            .as_bit()
            .expect("bit signal holds a word value")
    }

    /// Reads a word signal's current value (`None` if undriven).
    pub fn word(&self, sig: WordSignal) -> Option<u64> {
        self.inner.value(sig.id()).as_word()
    }

    /// The recorded waveform trace.
    pub fn trace(&self) -> &TraceBuffer {
        &self.inner.trace
    }

    /// The name a signal was declared with.
    pub fn signal_name(&self, sig: SignalId) -> &str {
        &self.inner.signals[sig.index()].name
    }

    /// Immutable access to a component's state via its typed handle.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not belong to this simulator or the type
    /// does not match (both are programming errors).
    pub fn get<T: Component>(&self, handle: Handle<T>) -> &T {
        let slot = &self.comps[handle.id().index()];
        let comp = slot.comp.as_deref().expect("component is being woken");
        let any: &dyn Any = comp;
        any.downcast_ref::<T>()
            .expect("component handle type mismatch")
    }

    /// Mutable access to a component's state via its typed handle.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Simulator::get`].
    pub fn get_mut<T: Component>(&mut self, handle: Handle<T>) -> &mut T {
        let slot = &mut self.comps[handle.id().index()];
        let comp = slot.comp.as_deref_mut().expect("component is being woken");
        let any: &mut dyn Any = comp;
        any.downcast_mut::<T>()
            .expect("component handle type mismatch")
    }

    /// Externally drives a signal at the current time plus `delay`.
    ///
    /// This is how testbench code (outside any component) injects stimulus.
    pub fn drive(&mut self, sig: SignalId, value: Value, delay: SimDuration) {
        self.inner.schedule_drive(sig, value, delay);
    }

    fn deliver(&mut self, comp: ComponentId, cause: Wake) {
        let slot = &mut self.comps[comp.index()];
        let mut boxed = match slot.comp.take() {
            Some(b) => b,
            // A component that wakes itself (timer + watched signal in the
            // same delta) is already out of the arena only if re-entered,
            // which the single-threaded loop never does; absence means a
            // stale watcher on a removed component — ignore.
            None => return,
        };
        self.inner.wakes += 1;
        let mut ctx = Ctx {
            inner: &mut self.inner,
            me: comp,
        };
        boxed.wake(&mut ctx, cause);
        self.comps[comp.index()].comp = Some(boxed);
    }

    /// Sends `Wake::Start` to every component, once, in registration order.
    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.comps.len() {
            self.deliver(ComponentId::from_raw(i as u32), Wake::Start);
        }
    }

    /// Runs until simulated time would exceed `deadline`, the queue drains,
    /// or a component calls [`Ctx::stop`].
    ///
    /// Events scheduled exactly at `deadline` are processed. The kernel
    /// never executes an event and then "rewinds": after this returns, all
    /// state is consistent as of `end_time`.
    ///
    /// # Errors
    ///
    /// [`SimError::CombinationalLoop`] if zero-delay activity at one
    /// timestamp exceeds the delta limit.
    pub fn run_until(&mut self, deadline: SimTime) -> Result<RunSummary, SimError> {
        self.start_if_needed();
        let fired_before = self.inner.events_fired;
        let wakes_before = self.inner.wakes;
        let mut quiescent = false;
        let mut stopped = false;
        // The wake batch is collected into a scratch buffer owned by the
        // kernel, so the steady state allocates nothing per delta.
        let mut wake_list = std::mem::take(&mut self.inner.wake_scratch);
        // Hoisted: whether tracing can ever apply this run.
        let any_traced = self.inner.any_traced;
        loop {
            if self.inner.stop_requested {
                self.inner.stop_requested = false;
                stopped = true;
                break;
            }
            let Some(t) = self.inner.queue.next_time() else {
                quiescent = true;
                break;
            };
            if t > deadline {
                break;
            }
            self.inner.now = t;
            let mut deltas = 0u32;
            // Delta loop: fire everything at `t`, including events newly
            // scheduled *at* `t` by the components we wake.
            while self.inner.queue.next_time() == Some(t) {
                deltas += 1;
                if deltas > MAX_DELTAS {
                    self.inner.wake_scratch = wake_list;
                    return Err(SimError::CombinationalLoop { time: t });
                }
                // Collect the batch currently queued at `t`; wakes are
                // delivered after the whole batch of value updates.
                wake_list.clear();
                self.inner.batch_epoch += 1;
                let epoch = self.inner.batch_epoch;
                while let Some(ev) = self.inner.queue.pop_at(t) {
                    self.inner.events_fired += 1;
                    match ev.kind {
                        EventKind::Drive { sig, value } => {
                            self.inner.apply_drive(
                                t,
                                sig,
                                value,
                                epoch,
                                any_traced,
                                &mut wake_list,
                            );
                        }
                        EventKind::Timer { comp, tag } => {
                            wake_list.push((comp, Wake::Timer(tag)));
                        }
                    }
                }
                for &(comp, cause) in &wake_list {
                    self.deliver(comp, cause);
                    if self.inner.stop_requested {
                        break;
                    }
                }
                if self.inner.stop_requested {
                    break;
                }
            }
        }
        self.inner.wake_scratch = wake_list;
        // When the run ends because nothing (more) happens before the
        // deadline, simulated time still passes up to the deadline. A run
        // halted by `Ctx::stop` keeps the stop instant as its end time.
        if !stopped && self.inner.now < deadline {
            self.inner.now = deadline;
        }
        Ok(RunSummary {
            events_fired: self.inner.events_fired - fired_before,
            wakes: self.inner.wakes - wakes_before,
            end_time: self.inner.now,
            quiescent,
        })
    }

    /// Runs for a further `span` of simulated time.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from [`Simulator::run_until`].
    pub fn run_for(&mut self, span: SimDuration) -> Result<RunSummary, SimError> {
        let deadline = self.inner.now + span;
        self.run_until(deadline)
    }

    /// Captures the kernel's dynamic state (see [`KernelSnapshot`] for
    /// what is and is not included).
    pub fn snapshot_kernel(&self) -> KernelSnapshot {
        let events = self
            .inner
            .queue
            .pending_sorted()
            .into_iter()
            .map(|e| KernelEvent {
                time: e.time,
                seq: e.seq,
                kind: match e.kind {
                    EventKind::Drive { sig, value } => KernelEventKind::Drive { sig, value },
                    EventKind::Timer { comp, tag } => KernelEventKind::Timer { comp, tag },
                },
            })
            .collect();
        KernelSnapshot {
            now: self.inner.now,
            started: self.started,
            next_seq: self.inner.queue.next_seq(),
            scheduled_total: self.inner.queue.scheduled_total(),
            events_fired: self.inner.events_fired,
            wakes: self.inner.wakes,
            signals: self.inner.signals.iter().map(|s| s.value).collect(),
            events,
            delay_model: self
                .inner
                .delay_model
                .as_ref()
                .map(|m| m.snapshot_state())
                .unwrap_or_default(),
        }
    }

    /// Restores the dynamic state captured by
    /// [`Simulator::snapshot_kernel`] into this simulator, which must
    /// have been built with the identical build sequence (same signals,
    /// components and sensitivity lists — ids are raw indices).
    ///
    /// Returns false (leaving the simulator in an unspecified mixed
    /// state) if the snapshot's shape does not match this simulator; the
    /// caller is expected to treat that as a hard error.
    pub fn restore_kernel(&mut self, snap: &KernelSnapshot) -> bool {
        // A snapshot lists its pending events in fire order; any other
        // order is not one a snapshot could hold.
        let in_order = snap
            .events
            .windows(2)
            .all(|w| (w[0].time, w[0].seq) < (w[1].time, w[1].seq));
        if snap.signals.len() != self.inner.signals.len() || !in_order {
            return false;
        }
        for (st, v) in self.inner.signals.iter_mut().zip(&snap.signals) {
            st.value = *v;
        }
        let events: Vec<crate::event::Event> = snap
            .events
            .iter()
            .map(|e| crate::event::Event {
                time: e.time,
                seq: e.seq,
                kind: match e.kind {
                    KernelEventKind::Drive { sig, value } => EventKind::Drive { sig, value },
                    KernelEventKind::Timer { comp, tag } => EventKind::Timer { comp, tag },
                },
            })
            .collect();
        self.inner
            .queue
            .restore(&events, snap.next_seq, snap.scheduled_total);
        self.inner.now = snap.now;
        self.inner.events_fired = snap.events_fired;
        self.inner.wakes = snap.wakes;
        self.inner.stop_requested = false;
        self.started = snap.started;
        match self.inner.delay_model.as_mut() {
            Some(m) => m.restore_state(&snap.delay_model),
            None => snap.delay_model.is_empty(),
        }
    }

    /// Total events ever scheduled (for benchmarking kernel overhead).
    pub fn events_scheduled(&self) -> u64 {
        self.inner.queue.scheduled_total()
    }

    /// Total events fired across every run segment so far.
    pub fn events_fired(&self) -> u64 {
        self.inner.events_fired
    }

    /// Total component wakes delivered across every run segment so far.
    pub fn wakes_delivered(&self) -> u64 {
        self.inner.wakes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::cell::RefCell;
    use std::rc::Rc;

    struct Pulser {
        out: BitSignal,
        period: SimDuration,
        count: u32,
    }
    impl Component for Pulser {
        fn wake(&mut self, ctx: &mut Ctx<'_>, cause: Wake) {
            match cause {
                Wake::Start => {
                    ctx.drive_bit(self.out, Bit::Zero, SimDuration::ZERO);
                    ctx.set_timer(self.period, 0);
                }
                Wake::Timer(_) => {
                    self.count += 1;
                    ctx.toggle_bit(self.out, SimDuration::ZERO);
                    ctx.set_timer(self.period, 0);
                }
                Wake::Signal(_) => {}
            }
        }
    }

    struct EdgeCounter {
        clk: BitSignal,
        prev: Bit,
        rising: u32,
        falling: u32,
    }
    impl Component for EdgeCounter {
        fn wake(&mut self, ctx: &mut Ctx<'_>, cause: Wake) {
            if let Wake::Signal(_) = cause {
                let v = ctx.bit(self.clk);
                if self.prev.is_zero() && v.is_one() {
                    self.rising += 1;
                }
                if self.prev.is_one() && v.is_zero() {
                    self.falling += 1;
                }
                self.prev = v;
            }
        }
    }

    #[test]
    fn pulser_and_edge_counter() {
        let mut b = SimBuilder::new();
        let clk = b.add_bit_signal("clk");
        let p = b.add_component(
            "pulser",
            Pulser {
                out: clk,
                period: SimDuration::ns(5),
                count: 0,
            },
        );
        let c = b.add_component(
            "ctr",
            EdgeCounter {
                clk,
                prev: Bit::X,
                rising: 0,
                falling: 0,
            },
        );
        b.watch(c.id(), clk.id());
        let mut sim = b.build();
        let summary = sim
            .run_until(SimTime::ZERO + SimDuration::ns(52))
            .expect("run");
        // Toggles at 5,10,...,50 -> 10 toggles, first toggle 0->1.
        assert_eq!(sim.get(p).count, 10);
        assert_eq!(sim.get(c).rising, 5);
        assert_eq!(sim.get(c).falling, 5);
        assert!(summary.events_fired > 0);
        assert!(!summary.quiescent);
    }

    #[test]
    fn redundant_drive_does_not_wake_watchers() {
        struct Driver {
            out: BitSignal,
        }
        impl Component for Driver {
            fn wake(&mut self, ctx: &mut Ctx<'_>, cause: Wake) {
                if matches!(cause, Wake::Start) {
                    ctx.drive_bit(self.out, Bit::One, SimDuration::ns(1));
                    ctx.drive_bit(self.out, Bit::One, SimDuration::ns(2));
                    ctx.drive_bit(self.out, Bit::One, SimDuration::ns(3));
                }
            }
        }
        let mut b = SimBuilder::new();
        let s = b.add_bit_signal("s");
        b.add_component("drv", Driver { out: s });
        let c = b.add_component(
            "ctr",
            EdgeCounter {
                clk: s,
                prev: Bit::Zero,
                rising: 0,
                falling: 0,
            },
        );
        b.watch(c.id(), s.id());
        let mut sim = b.build();
        sim.run_until(SimTime::ZERO + SimDuration::ns(10)).unwrap();
        assert_eq!(
            sim.get(c).rising,
            1,
            "only the first drive changes the value"
        );
    }

    #[test]
    fn same_instant_drives_apply_in_schedule_order() {
        struct Racer {
            out: WordSignal,
        }
        impl Component for Racer {
            fn wake(&mut self, ctx: &mut Ctx<'_>, cause: Wake) {
                if matches!(cause, Wake::Start) {
                    ctx.drive_word(self.out, 1, SimDuration::ns(1));
                    ctx.drive_word(self.out, 2, SimDuration::ns(1));
                }
            }
        }
        let mut b = SimBuilder::new();
        let s = b.add_word_signal("bus");
        b.add_component("racer", Racer { out: s });
        let mut sim = b.build();
        sim.run_until(SimTime::ZERO + SimDuration::ns(2)).unwrap();
        assert_eq!(sim.word(s), Some(2), "last scheduled write wins");
    }

    #[test]
    fn combinational_loop_detected() {
        struct Loop {
            a: BitSignal,
        }
        impl Component for Loop {
            fn wake(&mut self, ctx: &mut Ctx<'_>, cause: Wake) {
                match cause {
                    Wake::Start => ctx.drive_bit(self.a, Bit::One, SimDuration::ZERO),
                    Wake::Signal(_) => ctx.toggle_bit(self.a, SimDuration::ZERO),
                    _ => {}
                }
            }
        }
        let mut b = SimBuilder::new();
        let a = b.add_bit_signal("a");
        let l = b.add_component("loop", Loop { a });
        b.watch(l.id(), a.id());
        let mut sim = b.build();
        let err = sim
            .run_until(SimTime::ZERO + SimDuration::ns(1))
            .unwrap_err();
        assert_eq!(
            err,
            SimError::CombinationalLoop {
                time: SimTime::ZERO
            }
        );
        assert!(err.to_string().contains("combinational loop"));
    }

    #[test]
    fn same_batch_double_change_wakes_watcher_once() {
        // Two drives to the same signal in one batch: the watcher must be
        // woken exactly once (it would observe the final value twice
        // otherwise — pure overhead), and the value it reads is final.
        struct Glitcher {
            out: BitSignal,
        }
        impl Component for Glitcher {
            fn wake(&mut self, ctx: &mut Ctx<'_>, cause: Wake) {
                if matches!(cause, Wake::Start) {
                    ctx.drive_bit(self.out, Bit::One, SimDuration::ns(1));
                    ctx.drive_bit(self.out, Bit::Zero, SimDuration::ns(1));
                    ctx.drive_bit(self.out, Bit::One, SimDuration::ns(1));
                }
            }
        }
        struct WakeCounter {
            sig: BitSignal,
            wakes: u32,
            last: Bit,
        }
        impl Component for WakeCounter {
            fn wake(&mut self, ctx: &mut Ctx<'_>, cause: Wake) {
                if let Wake::Signal(_) = cause {
                    self.wakes += 1;
                    self.last = ctx.bit(self.sig);
                }
            }
        }
        let mut b = SimBuilder::new();
        let s = b.add_bit_signal_init("s", Bit::Zero);
        b.add_component("g", Glitcher { out: s });
        let c = b.add_component(
            "w",
            WakeCounter {
                sig: s,
                wakes: 0,
                last: Bit::X,
            },
        );
        b.watch(c.id(), s.id());
        let mut sim = b.build();
        let summary = sim.run_until(SimTime::ZERO + SimDuration::ns(2)).unwrap();
        assert_eq!(sim.get(c).wakes, 1, "batch-duplicate wakes must collapse");
        assert_eq!(sim.get(c).last, Bit::One, "watcher sees the final value");
        // The segment delivered exactly the one collapsed signal wake
        // (Start wakes precede the summary window); cumulatively the
        // kernel saw both Start wakes too.
        assert_eq!(summary.wakes, 1);
        assert_eq!(sim.wakes_delivered(), 3);
    }

    #[test]
    fn duplicate_watch_registrations_collapse() {
        struct WakeCounter {
            wakes: u32,
        }
        impl Component for WakeCounter {
            fn wake(&mut self, _ctx: &mut Ctx<'_>, cause: Wake) {
                if let Wake::Signal(_) = cause {
                    self.wakes += 1;
                }
            }
        }
        let mut b = SimBuilder::new();
        let s = b.add_bit_signal_init("s", Bit::Zero);
        let c = b.add_component("w", WakeCounter { wakes: 0 });
        for _ in 0..5 {
            b.watch(c.id(), s.id());
        }
        let mut sim = b.build();
        sim.drive(s.id(), Value::from(true), SimDuration::ns(1));
        sim.run_until(SimTime::ZERO + SimDuration::ns(2)).unwrap();
        assert_eq!(sim.get(c).wakes, 1, "five registrations, one wake");
    }

    #[test]
    fn cumulative_counters_accumulate_across_segments() {
        let mut b = SimBuilder::new();
        let clk = b.add_bit_signal_init("clk", Bit::Zero);
        b.add_component(
            "p",
            Pulser {
                out: clk,
                period: SimDuration::ns(5),
                count: 0,
            },
        );
        let mut sim = b.build();
        sim.run_until(SimTime::ZERO + SimDuration::ns(20)).unwrap();
        let fired_mid = sim.events_fired();
        assert!(fired_mid > 0);
        sim.run_until(SimTime::ZERO + SimDuration::ns(40)).unwrap();
        assert!(sim.events_fired() > fired_mid);
        assert!(sim.wakes_delivered() > 0);
        assert!(sim.events_scheduled() >= sim.events_fired());
    }

    #[test]
    fn quiescent_run_reports_deadline_time() {
        let mut b = SimBuilder::new();
        let _s = b.add_bit_signal("unused");
        let mut sim = b.build();
        let summary = sim.run_until(SimTime::ZERO + SimDuration::ns(100)).unwrap();
        assert!(summary.quiescent);
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::ns(100));
    }

    #[test]
    fn stop_requested_halts_run() {
        struct Stopper;
        impl Component for Stopper {
            fn wake(&mut self, ctx: &mut Ctx<'_>, cause: Wake) {
                match cause {
                    Wake::Start => ctx.set_timer(SimDuration::ns(3), 7),
                    Wake::Timer(7) => ctx.stop(),
                    _ => {}
                }
            }
        }
        let mut b = SimBuilder::new();
        b.add_component("stopper", Stopper);
        let mut sim = b.build();
        let summary = sim.run_until(SimTime::ZERO + SimDuration::ns(100)).unwrap();
        assert_eq!(summary.end_time, SimTime::ZERO + SimDuration::ns(3));
        // A later run resumes cleanly.
        let summary2 = sim.run_until(SimTime::ZERO + SimDuration::ns(100)).unwrap();
        assert!(summary2.quiescent);
    }

    #[test]
    fn external_drive_reaches_watchers() {
        let mut b = SimBuilder::new();
        let s = b.add_bit_signal("pin");
        let c = b.add_component(
            "ctr",
            EdgeCounter {
                clk: s,
                prev: Bit::Zero,
                rising: 0,
                falling: 0,
            },
        );
        b.watch(c.id(), s.id());
        let mut sim = b.build();
        sim.drive(s.id(), Value::from(true), SimDuration::ns(1));
        sim.run_until(SimTime::ZERO + SimDuration::ns(2)).unwrap();
        assert_eq!(sim.get(c).rising, 1);
    }

    #[test]
    fn delay_model_perturbs_scheduled_drives() {
        struct Skew {
            target: SignalId,
            extra: SimDuration,
        }
        impl DelayModel for Skew {
            fn perturb(
                &mut self,
                sig: SignalId,
                _value: &Value,
                _now: SimTime,
                nominal: SimDuration,
            ) -> SimDuration {
                if sig == self.target {
                    nominal + self.extra
                } else {
                    nominal
                }
            }
        }
        let mut b = SimBuilder::new();
        let a = b.add_bit_signal_init("a", Bit::Zero);
        let u = b.add_bit_signal_init("u", Bit::Zero);
        b.trace(a.id());
        b.trace(u.id());
        b.set_delay_model(Box::new(Skew {
            target: a.id(),
            extra: SimDuration::ns(2),
        }));
        let mut sim = b.build();
        sim.drive(a.id(), Value::from(true), SimDuration::ns(1));
        sim.drive(u.id(), Value::from(true), SimDuration::ns(1));
        sim.run_until(SimTime::ZERO + SimDuration::ns(10)).unwrap();
        let edge = |sim: &Simulator, sig: SignalId| {
            sim.trace()
                .changes(sig)
                .find(|(_, v)| *v == Value::Bit(Bit::One))
                .map(|(t, _)| t)
                .expect("signal must rise")
        };
        // The targeted signal lands 2ns late; the other is untouched.
        assert_eq!(edge(&sim, a.id()), SimTime::ZERO + SimDuration::ns(3));
        assert_eq!(edge(&sim, u.id()), SimTime::ZERO + SimDuration::ns(1));
    }

    #[test]
    fn delay_model_does_not_perturb_timers() {
        struct TimedDriver {
            out: BitSignal,
        }
        impl Component for TimedDriver {
            fn wake(&mut self, ctx: &mut Ctx<'_>, cause: Wake) {
                match cause {
                    Wake::Start => ctx.set_timer(SimDuration::ns(5), 0),
                    Wake::Timer(0) => ctx.drive_bit(self.out, Bit::One, SimDuration::ZERO),
                    _ => {}
                }
            }
        }
        struct AddOne;
        impl DelayModel for AddOne {
            fn perturb(
                &mut self,
                _sig: SignalId,
                _value: &Value,
                _now: SimTime,
                nominal: SimDuration,
            ) -> SimDuration {
                nominal + SimDuration::ns(1)
            }
        }
        let mut b = SimBuilder::new();
        let s = b.add_bit_signal_init("s", Bit::Zero);
        b.trace(s.id());
        b.add_component("d", TimedDriver { out: s });
        b.set_delay_model(Box::new(AddOne));
        let mut sim = b.build();
        sim.run_until(SimTime::ZERO + SimDuration::ns(10)).unwrap();
        // Timer fires at the nominal 5ns; only the drive gains 1ns.
        let t = sim
            .trace()
            .changes(s.id())
            .find(|(_, v)| *v == Value::Bit(Bit::One))
            .map(|(t, _)| t)
            .expect("signal must rise");
        assert_eq!(t, SimTime::ZERO + SimDuration::ns(6));
    }

    #[test]
    fn identical_seeds_give_identical_traces() {
        fn run(seed: u64) -> Vec<(SimTime, Bit)> {
            struct Rand {
                out: BitSignal,
            }
            impl Component for Rand {
                fn wake(&mut self, ctx: &mut Ctx<'_>, cause: Wake) {
                    match cause {
                        Wake::Start | Wake::Timer(_) => {
                            let v = ctx.rng().bool();
                            ctx.drive_bit(self.out, v, SimDuration::ZERO);
                            ctx.set_timer(SimDuration::ns(1), 0);
                        }
                        _ => {}
                    }
                }
            }
            let mut b = SimBuilder::new().with_seed(seed);
            let s = b.add_bit_signal("r");
            b.trace(s.id());
            b.add_component("rand", Rand { out: s });
            let mut sim = b.build();
            sim.run_until(SimTime::ZERO + SimDuration::ns(64)).unwrap();
            sim.trace()
                .changes(s.id())
                .map(|(t, v)| (t, v.as_bit().unwrap()))
                .collect()
        }
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds should diverge");
    }

    #[test]
    fn shared_state_between_components() {
        struct Writer {
            log: Rc<RefCell<Vec<u32>>>,
            tag: u32,
        }
        impl Component for Writer {
            fn wake(&mut self, _ctx: &mut Ctx<'_>, cause: Wake) {
                if matches!(cause, Wake::Start) {
                    self.log.borrow_mut().push(self.tag);
                }
            }
        }
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut b = SimBuilder::new();
        for tag in 0..4 {
            b.add_component(
                &format!("w{tag}"),
                Writer {
                    log: Rc::clone(&log),
                    tag,
                },
            );
        }
        let mut sim = b.build();
        sim.run_until(SimTime::ZERO).unwrap();
        assert_eq!(
            *log.borrow(),
            vec![0, 1, 2, 3],
            "Start wakes are delivered in registration order"
        );
    }
}
