//! Backend selection: which engine runs a built system.
//!
//! [`CompiledSystem`] is the compiled engine's scalar instantiation: a
//! whole system lowered once to a flat typed-event engine (see
//! `engine.rs`), byte-identical to the event kernel and roughly an
//! order of magnitude faster. [`BatchedSystem`](crate::BatchedSystem)
//! is the same engine instantiated over lanes of configurations.
//! [`SystemBuilder::build_backend`] picks between the event kernel and
//! the compiled engine and silently falls back to the event kernel
//! outside the compiled support envelope (bypass mode, node
//! observability, a half-period shorter than the bundled-data delay,
//! or a FIFO deeper than 64 stages) — callers never observe a
//! behavioural difference, only a speed difference. [`AnySystem`]
//! puts either engine behind one accessor surface. Both engines run the
//! wrapper's one rising-edge step (`edge.rs`), so a fault plan's
//! protocol decisions are made at the same site on either.

use crate::checkpoint::{Checkpoint, CheckpointBackend, CheckpointError, DecodedCheckpoint};
use crate::engine::{Group, Scalar};
use crate::iotrace::SbIoTrace;
use crate::logic::SyncLogic;
use crate::node::NodeFsm;
use crate::spec::{ChannelId, RingId, SbId, SystemSpec};
use crate::system::{RunOutcome, System, SystemBuilder};
use st_sim::prelude::*;

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

/// The compiled engine's scalar instantiation: one configuration
/// lowered to the flat typed-event engine (see the `engine` module).
///
/// Build one through [`SystemBuilder::build_backend`] with
/// [`Backend::Compiled`]; the accessor surface mirrors [`System`].
pub type CompiledSystem = Group<Scalar>;

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
    /// `CompiledSystem::checkpoint`).
    pub fn checkpoint(&self) -> Result<Checkpoint, CheckpointError> {
        delegate!(self, s => s.checkpoint())
    }

    /// The state [`checkpoint`](Self::checkpoint) would encode, held
    /// decoded (see [`System::snapshot`]): what an in-process fork
    /// resumes from.
    ///
    /// # Errors
    ///
    /// As [`checkpoint`](Self::checkpoint).
    pub fn snapshot(&self) -> Result<DecodedCheckpoint, CheckpointError> {
        delegate!(self, s => s.snapshot())
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
    /// allocations — see `CompiledSystem::restore_decoded`. Only the
    /// compiled backend supports it; callers holding an event-backed
    /// system fall back to [`resume_decoded`](Self::resume_decoded).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Unsupported`] on an event-backed system,
    /// otherwise as `CompiledSystem::restore_decoded`.
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
            Backend::Compiled => match CompiledSystem::lower_scalar(self) {
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
        assert_eq!(
            build_pair(Backend::Compiled).backend_kind(),
            BackendKind::Compiled
        );
        assert_eq!(
            build_pair(Backend::Event).backend_kind(),
            BackendKind::Event
        );
    }

    #[test]
    fn bypass_mode_falls_back_to_the_event_backend() {
        let sys = SystemBuilder::new(pair_spec())
            .unwrap()
            .bypass(SimDuration::ps(200))
            .build_backend(Backend::Compiled);
        assert_eq!(sys.backend_kind(), BackendKind::EventFallback);
    }

    #[test]
    fn sub_bundle_periods_fall_back_to_the_event_backend() {
        let mut spec = pair_spec();
        // Half period below the 1 ps bundled-data delay.
        spec.sbs[0].period = SimDuration::fs(1500);
        let sys = SystemBuilder::new(spec)
            .unwrap()
            .build_backend(Backend::Compiled);
        assert_eq!(sys.backend_kind(), BackendKind::EventFallback);
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
