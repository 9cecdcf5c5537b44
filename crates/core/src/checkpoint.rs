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
//! in wire order, over the building blocks of the shared codec in
//! `canon.rs`. Only the node parameters, node phase, kernel event and
//! compiled event, which carry tags or decode-time clamps, are written
//! out by hand.
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
//! Checkpointing is gated to [`WrapperMode::SynchroTokens`] without node
//! observability — the deterministic envelope where the kernel RNG is
//! never drawn and the waveform trace buffer stays empty, so neither
//! needs to be serialized. Bypass mode (which consumes RNG state per
//! metastable sample) and observed builds refuse with
//! [`CheckpointError::Unsupported`].

use crate::canon::{self, canon_record, Canon, Dec, Enc};
use crate::faults::{AnalogFault, Fault, FaultPlan, SeuTarget};
use crate::iotrace::{CanonError, SbIoTrace};
use crate::node::{NodeFsmSnapshot, NodePhase};
use crate::spec::{NodeParams, SystemSpec};
use crate::wrapper::WrapperSnapshot;
use st_channel::FifoSnapshot;
use st_sim::prelude::*;
use st_sim::{KernelEvent, KernelEventKind, KernelSnapshot};
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

impl CheckpointBackend {
    fn tag(self) -> u8 {
        match self {
            CheckpointBackend::Event => 0,
            CheckpointBackend::Compiled => 1,
        }
    }

    fn from_tag(t: u8) -> Result<Self, CanonError> {
        match t {
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
        let mut e = Enc::default();
        e.raw(&MAGIC);
        e.u8(VERSION);
        e.u8(self.backend.tag());
        e.raw(&self.spec_hash);
        e.u64(self.cycle);
        self.now.put(&mut e);
        e.u64(self.payload.len() as u64);
        e.raw(&self.payload);
        e.into_bytes()
    }

    /// Decodes a canonical blob.
    ///
    /// # Errors
    ///
    /// Returns a [`CanonError`] describing the first malformation.
    pub fn from_canonical_bytes(bytes: &[u8]) -> Result<Checkpoint, CanonError> {
        let mut d = Dec::new(bytes);
        if d.take(4)? != MAGIC {
            return Err(CanonError::BadMagic);
        }
        let version = u8::get(&mut d)?;
        if version != VERSION {
            return Err(CanonError::BadVersion(version));
        }
        let backend = CheckpointBackend::from_tag(u8::get(&mut d)?)?;
        let spec_hash: [u8; 16] = d.take(16)?.try_into().unwrap();
        let cycle = u64::get(&mut d)?;
        let now = SimTime::get(&mut d)?;
        let payload_len = usize::get(&mut d)?;
        let payload = d.take(payload_len)?.to_vec();
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
    /// cost a plain memcpy of the decoded state.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] for malformed payload bytes.
    pub fn decode(&self) -> Result<DecodedCheckpoint, CheckpointError> {
        let state = match self.backend {
            CheckpointBackend::Event => {
                let mut dump: EventStateDump = canon::decode(&self.payload)?;
                // The kernel snapshot carries its `now` in the header.
                dump.kernel.now = self.now;
                DecodedState::Event(dump)
            }
            CheckpointBackend::Compiled => DecodedState::Compiled(canon::decode(&self.payload)?),
        };
        Ok(DecodedCheckpoint {
            backend: self.backend,
            spec_hash: self.spec_hash,
            cycle: self.cycle,
            now: self.now,
            state,
        })
    }
}

/// A [`Checkpoint`] whose payload has been decoded into engine state,
/// ready to restore without re-parsing (see [`Checkpoint::decode`]).
pub struct DecodedCheckpoint {
    backend: CheckpointBackend,
    spec_hash: [u8; 16],
    cycle: u64,
    now: SimTime,
    pub(crate) state: DecodedState,
}

pub(crate) enum DecodedState {
    Event(EventStateDump),
    Compiled(CompiledStateDump),
}

impl DecodedCheckpoint {
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
    e.u64(plan.seed);
    let AnalogFault {
        clock_jitter,
        clock_drift_step,
        clock_drift_cap,
        token_jitter,
        data_jitter,
    } = plan.analog;
    e.dur(clock_jitter);
    e.dur(clock_drift_step);
    e.dur(clock_drift_cap);
    e.dur(token_jitter);
    e.dur(data_jitter);
    e.u32(plan.protocol.len() as u32);
    for f in &plan.protocol {
        match *f {
            Fault::TokenLoss {
                ring,
                to_holder,
                nth,
            } => {
                e.u8(0);
                e.u32(ring.0 as u32);
                to_holder.put(e);
                e.u64(nth);
            }
            Fault::TokenDup {
                ring,
                to_holder,
                nth,
                extra,
            } => {
                e.u8(1);
                e.u32(ring.0 as u32);
                to_holder.put(e);
                e.u64(nth);
                e.dur(extra);
            }
            Fault::TokenDelay {
                ring,
                to_holder,
                nth,
                extra,
            } => {
                e.u8(2);
                e.u32(ring.0 as u32);
                to_holder.put(e);
                e.u64(nth);
                e.dur(extra);
            }
            Fault::ReqDrop { channel, nth } => {
                e.u8(3);
                e.u32(channel.0 as u32);
                e.u64(nth);
            }
            Fault::AckDrop { channel, nth } => {
                e.u8(4);
                e.u32(channel.0 as u32);
                e.u64(nth);
            }
            Fault::ChannelStall {
                channel,
                nth,
                extra,
            } => {
                e.u8(5);
                e.u32(channel.0 as u32);
                e.u64(nth);
                e.dur(extra);
            }
        }
    }
    e.u32(plan.seu.len() as u32);
    for s in &plan.seu {
        e.u32(s.sb.0 as u32);
        e.u32(s.ring.0 as u32);
        e.u64(s.at_cycle);
        match s.target {
            SeuTarget::HoldBit(b) => {
                e.u8(0);
                e.u32(b);
            }
            SeuTarget::RecycleBit(b) => {
                e.u8(1);
                e.u32(b);
            }
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
        e.dur(sb.period);
        e.dur(sb.logic_delay);
    }
    e.u32(spec.rings.len() as u32);
    for r in &spec.rings {
        e.u32(r.holder.0 as u32);
        e.u32(r.peer.0 as u32);
        r.holder_node.put(&mut e);
        r.peer_node.put(&mut e);
        e.dur(r.delay_fwd);
        e.dur(r.delay_back);
        r.peer_initial_recycle.put(&mut e);
    }
    e.u32(spec.channels.len() as u32);
    for c in &spec.channels {
        e.u32(c.from.0 as u32);
        e.u32(c.to.0 as u32);
        e.u32(c.ring.0 as u32);
        e.u32(c.bits);
        e.u64(c.fifo_depth as u64);
        e.dur(c.stage_delay);
    }
    e.u64(seed);
    e.u64(trace_limit as u64);
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
        // A corrupt zero register is clamped: `NodeParams::new` panics
        // on zero, and decoding must not.
        Ok(NodeParams::new(u32::get(d)?.max(1), u32::get(d)?.max(1)))
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

/// `time | seq | tag | operands`, tag `0` Drive (`sig: u32`, value) or
/// `1` Timer (`comp: u32`, `tag: u64`).
impl Canon for KernelEvent {
    fn put(&self, e: &mut Enc) {
        self.time.put(e);
        e.u64(self.seq);
        match self.kind {
            KernelEventKind::Drive { sig, value } => {
                e.u8(0);
                e.u32(sig.as_raw());
                value.put(e);
            }
            KernelEventKind::Timer { comp, tag } => {
                e.u8(1);
                e.u32(comp.as_raw());
                e.u64(tag);
            }
        }
    }

    fn get(d: &mut Dec<'_>) -> Result<Self, CanonError> {
        let time = SimTime::get(d)?;
        let seq = u64::get(d)?;
        let kind = match u8::get(d)? {
            0 => KernelEventKind::Drive {
                sig: SignalId::from_raw(u32::get(d)?),
                value: Value::get(d)?,
            },
            1 => KernelEventKind::Timer {
                comp: ComponentId::from_raw(u32::get(d)?),
                tag: u64::get(d)?,
            },
            t => return Err(CanonError::BadTag(t)),
        };
        Ok(KernelEvent { time, seq, kind })
    }
}

// `now` travels in the checkpoint header, not the payload.
canon_record!(KernelSnapshot {
    started,
    next_seq,
    scheduled_total,
    events_fired,
    wakes,
    signals,
    events,
    delay_model;
    now: SimTime::ZERO
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

canon_record!(FifoSnapshot {
    stages,
    pushes,
    pops,
    max_occupancy,
    overruns,
    underruns,
});

/// Protocol fault-injector occurrence counters `(token, push, ack)`,
/// when an injector is installed.
pub(crate) type InjectorDump = Option<(Vec<u64>, Vec<u64>, Vec<u64>)>;

/// Everything the event backend needs to freeze: kernel, wrappers,
/// clocks, FIFOs, injector. Gathered by `System::checkpoint`.
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
        self.time.put(e);
        e.u64(self.seq);
        e.u8(self.kind);
        e.u32(self.a);
        e.u64(self.b);
    }

    fn get(d: &mut Dec<'_>) -> Result<Self, CanonError> {
        let time = SimTime::get(d)?;
        let seq = u64::get(d)?;
        let kind = u8::get(d)?;
        if kind > 4 {
            return Err(CanonError::BadTag(kind));
        }
        Ok(CompiledEvDump {
            time,
            seq,
            kind,
            a: u32::get(d)?,
            b: u64::get(d)?,
        })
    }
}

/// Per-SB dynamic state of the compiled engine.
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
