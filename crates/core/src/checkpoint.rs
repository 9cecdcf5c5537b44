//! Canonical engine-state checkpoints: snapshot a run at a cycle
//! boundary, serialize it byte-stably, and resume it later — on the same
//! backend — with bit-identical continuation.
//!
//! The paper's determinism invariant makes this sound: under
//! synchro-tokens every SB's I/O sequence is a pure function of its
//! local cycle count, so the *entire* engine state at any instant is a
//! pure function of (system configuration, simulated time). A
//! checkpoint is therefore content-addressable — two runs of the same
//! configuration snapshot to byte-identical `STCP` blobs — and a
//! campaign whose variants share a nominal prefix can fork from one
//! shared checkpoint instead of re-simulating from cycle 0
//! (`st_testkit`'s prefix-fork planner; the `campaign_fork` bench).
//!
//! # Format
//!
//! A checkpoint serializes to a versioned, byte-stable blob:
//!
//! ```text
//! "STCP" | version u8 = 1 | backend u8 | spec_hash [u8; 16]
//!        | cycle u64 | now u64 | payload_len u64 | payload ...
//! ```
//!
//! all integers little-endian. `backend` tags the engine that produced
//! the payload (`0` = event kernel, `1` = compiled typed-event engine);
//! resume never crosses backends — the two engines are observationally
//! byte-identical but their internal state shapes are not, and a
//! cross-backend transplant would silently discard in-flight events.
//! `spec_hash` is a 16-byte content key over the canonical encoding of
//! the *configuration*: [`SystemSpec`], kernel seed, trace limit and the
//! attached [`FaultPlan`]. Resume recomputes the hash from the supplied
//! builder and refuses a mismatch, so a checkpoint can never be
//! transplanted onto a differently-configured system.
//!
//! The payload is the backend's own dump of every piece of dynamic
//! state: pending event queue (sorted by `(time, seq)` — exactly fire
//! order), clock phases, node FSMs, wrapper parities and traces, FIFO
//! ladders, fault-injection occurrence counters, and each SB's logic
//! state via [`SyncLogic::save_state`](crate::logic::SyncLogic::save_state).
//!
//! Each payload record's layout is its `canon_record!` field list below,
//! in wire order, over the building blocks of the workspace codec
//! [`st_sim::canon`], which also holds the kernel snapshot and kernel
//! event layouts (`st-channel` holds the FIFO snapshot's). Only the
//! node parameters, node phase and compiled event, which carry tags or
//! decode-time clamps, are written out by hand.
//!
//! # Content hashing
//!
//! [`Checkpoint::content_hash`] uses the same double-FNV/mix64
//! construction as `st-serve`'s result-store content keys, so a serve
//! deployment can cache checkpoints under the identical key scheme it
//! already uses for traces (keyed by `(spec_hash, cycle)`).
//!
//! # Support envelope
//!
//! Checkpointing is gated to
//! [`WrapperMode::SynchroTokens`](crate::WrapperMode::SynchroTokens) without node
//! observability — the deterministic envelope where the kernel RNG is
//! never drawn and the waveform trace buffer stays empty, so neither
//! needs to be serialized. Bypass mode (which consumes RNG state per
//! metastable sample) and observed builds refuse with
//! [`CheckpointError::Unsupported`].

use crate::faults::{AnalogFault, Fault, FaultPlan, SeuTarget};
use crate::iotrace::SbIoTrace;
use crate::node::{NodeFsmSnapshot, NodePhase};
use crate::spec::{NodeParams, SystemSpec};
use crate::wrapper::WrapperSnapshot;
use st_channel::FifoSnapshot;
use st_sim::canon::{self, canon_record, Canon, CanonError, Dec, Enc};
use st_sim::prelude::*;
use st_sim::KernelSnapshot;
use std::fmt;

/// Serialization magic.
const MAGIC: [u8; 4] = *b"STCP";
/// Current format version.
const VERSION: u8 = 1;

// --- serve-compatible content keys --------------------------------------

/// The content key and hex form shared with `st-serve`'s result store,
/// so checkpoints and traces share one cache key scheme.
pub use st_sim::hash::{content_key16, key_hex};

// --- public types --------------------------------------------------------

/// The engine a checkpoint was taken on (and must be resumed on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointBackend {
    /// The general event kernel ([`crate::system::System`]).
    Event,
    /// The compiled typed-event engine
    /// ([`crate::compiled_system::CompiledSystem`]).
    Compiled,
}

impl Canon for CheckpointBackend {
    fn put(&self, e: &mut Enc) {
        e.u8(match self {
            CheckpointBackend::Event => 0,
            CheckpointBackend::Compiled => 1,
        });
    }

    fn get(d: &mut Dec<'_>) -> Result<Self, CanonError> {
        match u8::get(d)? {
            0 => Ok(CheckpointBackend::Event),
            1 => Ok(CheckpointBackend::Compiled),
            t => Err(CanonError::BadTag(t)),
        }
    }
}

impl fmt::Display for CheckpointBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointBackend::Event => write!(f, "event"),
            CheckpointBackend::Compiled => write!(f, "compiled"),
        }
    }
}

/// Why a checkpoint or resume was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The system is outside the checkpointable envelope (bypass mode,
    /// node observability, or a logic without
    /// [`SyncLogic::save_state`](crate::logic::SyncLogic::save_state)).
    Unsupported(&'static str),
    /// The resume builder's configuration hash differs from the
    /// checkpoint's `spec_hash` (or state shapes mismatch it).
    SpecMismatch,
    /// The checkpoint was taken on a different backend than the one
    /// asked to resume it.
    BackendMismatch,
    /// The serialized bytes are malformed.
    Corrupt(CanonError),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Unsupported(what) => {
                write!(f, "system not checkpointable: {what}")
            }
            CheckpointError::SpecMismatch => {
                write!(f, "checkpoint belongs to a different configuration")
            }
            CheckpointError::BackendMismatch => {
                write!(f, "checkpoint belongs to a different backend")
            }
            CheckpointError::Corrupt(e) => write!(f, "corrupt checkpoint: {e:?}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<CanonError> for CheckpointError {
    fn from(e: CanonError) -> Self {
        CheckpointError::Corrupt(e)
    }
}

/// A complete, canonical, resumable engine snapshot.
///
/// Obtain one from
/// [`System::checkpoint`](crate::system::System::checkpoint),
/// `CompiledSystem::checkpoint`
/// or [`AnySystem::checkpoint`](crate::compiled_system::AnySystem::checkpoint);
/// turn it back into a running system with the matching `resume`
/// constructor plus an identically-configured builder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    backend: CheckpointBackend,
    spec_hash: [u8; 16],
    cycle: u64,
    now: SimTime,
    payload: Vec<u8>,
}

impl Checkpoint {
    pub(crate) fn new(
        backend: CheckpointBackend,
        spec_hash: [u8; 16],
        cycle: u64,
        now: SimTime,
        payload: Vec<u8>,
    ) -> Self {
        Checkpoint {
            backend,
            spec_hash,
            cycle,
            now,
            payload,
        }
    }

    /// The backend that produced (and can resume) this checkpoint.
    pub fn backend(&self) -> CheckpointBackend {
        self.backend
    }

    /// The configuration content key the checkpoint is bound to.
    pub fn spec_hash(&self) -> [u8; 16] {
        self.spec_hash
    }

    /// The minimum local cycle count across SBs at snapshot time.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Simulated time at snapshot time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The canonical serialized form. Byte-stable: serializing,
    /// deserializing and serializing again yields identical bytes.
    pub fn to_canonical_bytes(&self) -> Vec<u8> {
        let mut e = Enc::with_capacity(46 + self.payload.len());
        e.raw(&MAGIC);
        e.u8(VERSION);
        (self.backend, self.spec_hash, self.cycle, self.now).put(&mut e);
        e.long_bytes(&self.payload);
        e.into_bytes()
    }

    /// Decodes a canonical blob.
    ///
    /// # Errors
    ///
    /// Returns a [`CanonError`] describing the first malformation.
    pub fn from_canonical_bytes(bytes: &[u8]) -> Result<Checkpoint, CanonError> {
        let mut d = Dec::new(bytes);
        d.magic(&MAGIC)?;
        let version = u8::get(&mut d)?;
        if version != VERSION {
            return Err(CanonError::BadVersion(version));
        }
        let (backend, spec_hash, cycle, now) = Canon::get(&mut d)?;
        let payload = d.long_bytes()?.to_vec();
        d.finish()?;
        Ok(Checkpoint {
            backend,
            spec_hash,
            cycle,
            now,
            payload,
        })
    }

    /// The serve-compatible content key of the canonical blob. Because
    /// the engines are deterministic, two independent runs of the same
    /// configuration produce checkpoints with identical hashes at the
    /// same snapshot point.
    pub fn content_hash(&self) -> [u8; 16] {
        content_key16(&self.to_canonical_bytes())
    }

    /// Hex rendering of [`content_hash`](Self::content_hash).
    pub fn content_hex(&self) -> String {
        key_hex(self.content_hash())
    }

    /// Decodes the payload once, for repeated resumes.
    ///
    /// `resume` accepts a [`Checkpoint`] directly, but pays the payload
    /// decode on every call — per-element codec work that scales with
    /// the snapshot's history (traces, edge times). A prefix-fork
    /// campaign resumes *many* variants from *one* blob; decoding once
    /// and resuming from the [`DecodedCheckpoint`] makes the per-variant
    /// cost a plain memcpy of the decoded state. A fork taken in the
    /// same process needs no blob at all: the engines' `snapshot()`
    /// returns the decoded state directly, equal to decoding their
    /// `checkpoint()`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] for malformed payload bytes.
    pub fn decode(&self) -> Result<DecodedCheckpoint, CheckpointError> {
        // The header's cycle and time echo the payload's state: an
        // engine checkpoints the minimum SB cycle and its own clock.
        let (state, cycles, now) = match self.backend {
            CheckpointBackend::Event => {
                let mut dump: EventStateDump = canon::decode(&self.payload)?;
                // The kernel snapshot carries its `now` in the header.
                dump.kernel.now = self.now;
                let cycles = dump.wrappers.iter().map(|w| w.cycle).min();
                (DecodedState::Event(dump), cycles, self.now)
            }
            CheckpointBackend::Compiled => {
                let dump: CompiledStateDump = canon::decode(&self.payload)?;
                let (cycles, now) = (dump.sbs.iter().map(|sb| sb.cycle).min(), dump.now);
                (DecodedState::Compiled(dump), cycles, now)
            }
        };
        if cycles.unwrap_or(0) != self.cycle || now != self.now {
            return Err(CanonError::BadValue.into());
        }
        Ok(DecodedCheckpoint::new(
            self.spec_hash,
            self.cycle,
            self.now,
            state,
        ))
    }
}

/// A [`Checkpoint`] whose payload is held as engine state, ready to
/// restore without re-parsing: either a decoded blob (see
/// [`Checkpoint::decode`]) or an engine's in-process `snapshot()`.
/// [`encode`](Self::encode) turns it into the blob, and every engine's
/// `checkpoint()` is `snapshot()` followed by `encode()`.
#[derive(PartialEq)]
pub struct DecodedCheckpoint {
    backend: CheckpointBackend,
    spec_hash: [u8; 16],
    cycle: u64,
    now: SimTime,
    pub(crate) state: DecodedState,
}

#[derive(PartialEq)]
pub(crate) enum DecodedState {
    Event(EventStateDump),
    Compiled(CompiledStateDump),
}

impl DecodedCheckpoint {
    /// Wraps an engine's state dump, taken at `now` with its slowest SB
    /// at `cycle`, under the configuration key `spec_hash`.
    pub(crate) fn new(spec_hash: [u8; 16], cycle: u64, now: SimTime, state: DecodedState) -> Self {
        let backend = match state {
            DecodedState::Event(_) => CheckpointBackend::Event,
            DecodedState::Compiled(_) => CheckpointBackend::Compiled,
        };
        DecodedCheckpoint {
            backend,
            spec_hash,
            cycle,
            now,
            state,
        }
    }

    /// Serializes the state into its canonical [`Checkpoint`]; the
    /// inverse of [`Checkpoint::decode`].
    pub fn encode(&self) -> Checkpoint {
        let payload = match &self.state {
            DecodedState::Event(dump) => canon::encode(dump),
            DecodedState::Compiled(dump) => canon::encode(dump),
        };
        Checkpoint::new(self.backend, self.spec_hash, self.cycle, self.now, payload)
    }

    /// The backend that produced (and can resume) this checkpoint.
    pub fn backend(&self) -> CheckpointBackend {
        self.backend
    }

    /// The configuration content key the checkpoint is bound to.
    pub fn spec_hash(&self) -> [u8; 16] {
        self.spec_hash
    }

    /// The minimum local cycle count across SBs at snapshot time.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Simulated time at snapshot time.
    pub fn now(&self) -> SimTime {
        self.now
    }
}

impl fmt::Debug for DecodedCheckpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DecodedCheckpoint")
            .field("backend", &self.backend)
            .field("cycle", &self.cycle)
            .field("now", &self.now)
            .finish_non_exhaustive()
    }
}

// --- configuration hashing -----------------------------------------------

fn encode_fault_plan(e: &mut Enc, plan: &FaultPlan) {
    let AnalogFault {
        clock_jitter,
        clock_drift_step,
        clock_drift_cap,
        token_jitter,
        data_jitter,
    } = plan.analog;
    e.u64(plan.seed);
    (clock_jitter, clock_drift_step, clock_drift_cap).put(e);
    (token_jitter, data_jitter).put(e);
    e.u32(plan.protocol.len() as u32);
    for f in &plan.protocol {
        match *f {
            Fault::TokenLoss {
                ring,
                to_holder,
                nth,
            } => (0u8, ring.0 as u32, to_holder, nth).put(e),
            Fault::TokenDup {
                ring,
                to_holder,
                nth,
                extra,
            } => (1u8, ring.0 as u32, to_holder, nth, extra).put(e),
            Fault::TokenDelay {
                ring,
                to_holder,
                nth,
                extra,
            } => (2u8, ring.0 as u32, to_holder, nth, extra).put(e),
            Fault::ReqDrop { channel, nth } => (3u8, channel.0 as u32, nth).put(e),
            Fault::AckDrop { channel, nth } => (4u8, channel.0 as u32, nth).put(e),
            Fault::ChannelStall {
                channel,
                nth,
                extra,
            } => (5u8, channel.0 as u32, nth, extra).put(e),
        }
    }
    e.u32(plan.seu.len() as u32);
    for s in &plan.seu {
        (s.sb.0 as u32, s.ring.0 as u32, s.at_cycle).put(e);
        match s.target {
            SeuTarget::HoldBit(b) => (0u8, b).put(e),
            SeuTarget::RecycleBit(b) => (1u8, b).put(e),
            SeuTarget::TokenLatch => e.u8(2),
        }
    }
}

/// Canonical encoding of a full run configuration: spec, seed, trace
/// limit and fault plan. The [`content_key16`] of these bytes is the
/// `spec_hash` checkpoints are bound to.
pub fn encode_config(
    spec: &SystemSpec,
    seed: u64,
    trace_limit: usize,
    faults: Option<&FaultPlan>,
) -> Vec<u8> {
    let mut e = Enc::default();
    e.u32(spec.sbs.len() as u32);
    for sb in &spec.sbs {
        e.bytes(sb.name.as_bytes());
        (sb.period, sb.logic_delay).put(&mut e);
    }
    e.u32(spec.rings.len() as u32);
    for r in &spec.rings {
        (
            r.holder.0 as u32,
            r.peer.0 as u32,
            r.holder_node,
            r.peer_node,
        )
            .put(&mut e);
        (r.delay_fwd, r.delay_back, r.peer_initial_recycle).put(&mut e);
    }
    e.u32(spec.channels.len() as u32);
    for c in &spec.channels {
        (c.from.0 as u32, c.to.0 as u32, c.ring.0 as u32, c.bits).put(&mut e);
        (c.fifo_depth, c.stage_delay).put(&mut e);
    }
    (seed, trace_limit).put(&mut e);
    match faults {
        None => e.u8(0),
        Some(p) => {
            e.u8(1);
            encode_fault_plan(&mut e, p);
        }
    }
    e.into_bytes()
}

/// The 16-byte configuration content key (see [`encode_config`]).
pub fn config_hash(
    spec: &SystemSpec,
    seed: u64,
    trace_limit: usize,
    faults: Option<&FaultPlan>,
) -> [u8; 16] {
    content_key16(&encode_config(spec, seed, trace_limit, faults))
}

// --- payload records (see "Format" above) --------------------------------

impl Canon for NodeParams {
    fn put(&self, e: &mut Enc) {
        e.u32(self.hold);
        e.u32(self.recycle);
    }

    fn get(d: &mut Dec<'_>) -> Result<Self, CanonError> {
        // `NodeParams::new` panics on a zero register; decoding fails.
        match <(u32, u32)>::get(d)? {
            (0, _) | (_, 0) => Err(CanonError::BadValue),
            (hold, recycle) => Ok(NodeParams::new(hold, recycle)),
        }
    }
}

impl Canon for NodePhase {
    fn put(&self, e: &mut Enc) {
        e.u8(match self {
            NodePhase::Holding => 0,
            NodePhase::Recycling => 1,
            NodePhase::Stopped => 2,
        });
    }

    fn get(d: &mut Dec<'_>) -> Result<Self, CanonError> {
        match u8::get(d)? {
            0 => Ok(NodePhase::Holding),
            1 => Ok(NodePhase::Recycling),
            2 => Ok(NodePhase::Stopped),
            t => Err(CanonError::BadTag(t)),
        }
    }
}

canon_record!(NodeFsmSnapshot {
    params,
    phase,
    hold_ctr,
    recycle_ctr,
    has_token,
    hold_indefinitely,
    passes,
    stops,
    early_tokens,
});

canon_record!(WrapperSnapshot {
    prev_clk,
    cycle,
    dropped_words,
    metastable_samples,
    timing_violations,
    last_edge,
    edge_times,
    trace,
    nodes,
    input_ack_parity,
    output_req_parity,
    logic,
});

/// Protocol fault-injector occurrence counters `(token, push, ack)`,
/// when an injector is installed.
pub(crate) type InjectorDump = Option<(Vec<u64>, Vec<u64>, Vec<u64>)>;

/// Everything the event backend needs to freeze: kernel, wrappers,
/// clocks, FIFOs, injector. Gathered by `System::checkpoint`.
#[derive(PartialEq)]
pub(crate) struct EventStateDump {
    pub kernel: KernelSnapshot,
    pub wrappers: Vec<WrapperSnapshot>,
    /// Per clock: (parked, edges, stops).
    pub clocks: Vec<(bool, u64, u64)>,
    pub fifos: Vec<FifoSnapshot>,
    /// Protocol fault-injector occurrence counters, when installed.
    pub injector: InjectorDump,
}

canon_record!(EventStateDump {
    kernel,
    wrappers,
    clocks,
    fifos,
    injector,
});

/// One pending compiled-engine event other than a clock phase or rising
/// edge (those are per-SB slots), flattened for serialization.
/// `kind` tags: 0 Push, 1 Pop, 2 Move, 3 Token, 4 Clken.
#[derive(PartialEq)]
pub(crate) struct CompiledEvDump {
    pub time: SimTime,
    pub seq: u64,
    pub kind: u8,
    /// First operand (channel / sb index).
    pub a: u32,
    /// Second operand (word / stage / node / ena).
    pub b: u64,
}

impl Canon for CompiledEvDump {
    fn put(&self, e: &mut Enc) {
        (self.time, self.seq, self.kind, self.a, self.b).put(e);
    }

    fn get(d: &mut Dec<'_>) -> Result<Self, CanonError> {
        match Canon::get(d)? {
            (_, _, kind @ 5.., _, _) => Err(CanonError::BadTag(kind)),
            (time, seq, kind, a, b) => Ok(CompiledEvDump {
                time,
                seq,
                kind,
                a,
                b,
            }),
        }
    }
}

/// Per-SB dynamic state of the compiled engine.
#[derive(PartialEq)]
pub(crate) struct CompiledSbDump {
    pub clk_high: bool,
    pub parked: bool,
    pub clken: bool,
    pub edges: u64,
    pub clock_stops: u64,
    pub cycle: u64,
    pub dropped_words: u64,
    pub timing_violations: u64,
    pub last_edge: Option<SimTime>,
    pub edge_times: Vec<SimTime>,
    pub trace: SbIoTrace,
    pub nodes: Vec<NodeFsmSnapshot>,
    pub logic: Vec<u8>,
}

canon_record!(CompiledSbDump {
    clk_high,
    parked,
    clken,
    edges,
    clock_stops,
    cycle,
    dropped_words,
    timing_violations,
    last_edge,
    edge_times,
    trace,
    nodes,
    logic,
});

/// Per-FIFO dynamic state of the compiled engine.
#[derive(PartialEq)]
pub(crate) struct CompiledFifoDump {
    pub occ: u64,
    pub words: Vec<u64>,
    pub pending: Vec<(SimTime, u32)>,
    pub pushes: u64,
    pub pops: u64,
    pub overruns: u64,
    pub underruns: u64,
}

canon_record!(CompiledFifoDump {
    occ,
    words,
    pending,
    pushes,
    pops,
    overruns,
    underruns,
});

/// The compiled engine's complete dynamic state.
#[derive(PartialEq)]
pub(crate) struct CompiledStateDump {
    pub now: SimTime,
    pub seq: u64,
    pub events: u64,
    /// Per SB: (phase slot, posedge slot) packed `(time << 64) | seq`
    /// keys, `u128::MAX` when empty.
    pub clk: Vec<(u128, u128)>,
    /// Every other pending event, sorted by `(time, seq)`.
    pub heap: Vec<CompiledEvDump>,
    pub sbs: Vec<CompiledSbDump>,
    pub fifos: Vec<CompiledFifoDump>,
    /// Analog jitter occurrence counters (opaque
    /// `JitterCounters::snapshot_occ` bytes), when active.
    pub jitter: Option<Vec<u8>>,
    /// Protocol fault-injector occurrence counters, when installed.
    pub injector: InjectorDump,
}

canon_record!(CompiledStateDump {
    now,
    seq,
    events,
    clk,
    heap,
    sbs,
    fifos,
    jitter,
    injector,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_key_matches_serve_scheme() {
        // Locked-down vectors: st-serve's ContentKey::of must produce
        // identical bytes for identical input (checked there too).
        let k = content_key16(b"");
        assert_eq!(k, content_key16(b""));
        assert_ne!(content_key16(b"a"), content_key16(b"b"));
        assert_eq!(key_hex(k).len(), 32);
    }

    #[test]
    fn checkpoint_round_trips_byte_stably() {
        let ck = Checkpoint::new(
            CheckpointBackend::Compiled,
            [7; 16],
            42,
            SimTime::ZERO + SimDuration::ns(5),
            vec![1, 2, 3, 4, 5],
        );
        let bytes = ck.to_canonical_bytes();
        let back = Checkpoint::from_canonical_bytes(&bytes).unwrap();
        assert_eq!(back, ck);
        assert_eq!(back.to_canonical_bytes(), bytes, "byte-stable");
        assert_eq!(back.content_hash(), ck.content_hash());
    }

    #[test]
    fn corrupt_blobs_are_rejected() {
        let ck = Checkpoint::new(
            CheckpointBackend::Event,
            [0; 16],
            1,
            SimTime::ZERO,
            vec![9; 8],
        );
        let bytes = ck.to_canonical_bytes();
        assert_eq!(
            Checkpoint::from_canonical_bytes(&bytes[..bytes.len() - 1]),
            Err(CanonError::Truncated)
        );
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            Checkpoint::from_canonical_bytes(&bad_magic),
            Err(CanonError::BadMagic)
        );
        let mut bad_version = bytes.clone();
        bad_version[4] = 99;
        assert_eq!(
            Checkpoint::from_canonical_bytes(&bad_version),
            Err(CanonError::BadVersion(99))
        );
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            Checkpoint::from_canonical_bytes(&trailing),
            Err(CanonError::TrailingBytes(1))
        );
    }

    #[test]
    fn config_hash_distinguishes_configurations() {
        let spec = crate::scenarios::pingpong_spec();
        let base = config_hash(&spec, 0, 64, None);
        assert_eq!(base, config_hash(&spec, 0, 64, None), "deterministic");
        assert_ne!(base, config_hash(&spec, 1, 64, None), "seed matters");
        assert_ne!(base, config_hash(&spec, 0, 65, None), "limit matters");
        let plan = FaultPlan {
            seed: 3,
            ..FaultPlan::default()
        };
        assert_ne!(base, config_hash(&spec, 0, 64, Some(&plan)));
        let mut spec2 = spec.clone();
        spec2.sbs[0].period = spec2.sbs[0].period * 2;
        assert_ne!(base, config_hash(&spec2, 0, 64, None), "spec matters");
    }
}
