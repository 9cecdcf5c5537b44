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

use crate::faults::{AnalogFault, Fault, FaultPlan, SeuTarget};
use crate::iotrace::{CanonError, SbIoTrace};
use crate::node::NodeFsmSnapshot;
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

// --- encoder / decoder ---------------------------------------------------

/// Byte-writer for the canonical encoding (all integers little-endian).
#[derive(Debug, Default)]
pub(crate) struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub fn new() -> Self {
        Enc { buf: Vec::new() }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }

    pub fn time(&mut self, t: SimTime) {
        self.u64(t.as_fs());
    }

    pub fn dur(&mut self, d: SimDuration) {
        self.u64(d.as_fs());
    }

    pub fn opt_time(&mut self, t: Option<SimTime>) {
        match t {
            None => self.u8(0),
            Some(t) => {
                self.u8(1);
                self.time(t);
            }
        }
    }

    pub fn bit(&mut self, b: Bit) {
        self.u8(match b {
            Bit::Zero => 0,
            Bit::One => 1,
            Bit::X => 2,
        });
    }

    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Bit(b) => self.bit(*b),
            Value::Word(w) => {
                self.u8(3);
                self.u64(*w);
            }
            Value::WordX => self.u8(4),
        }
    }

    pub fn u64s(&mut self, vs: &[u64]) {
        self.u32(vs.len() as u32);
        for &v in vs {
            self.u64(v);
        }
    }

    pub fn times(&mut self, ts: &[SimTime]) {
        self.u32(ts.len() as u32);
        for &t in ts {
            self.time(t);
        }
    }

    pub fn bools(&mut self, bs: &[bool]) {
        self.u32(bs.len() as u32);
        for &b in bs {
            self.bool(b);
        }
    }
}

/// Byte-reader for the canonical encoding (mirrors `iotrace`'s reader,
/// reusing its [`CanonError`] vocabulary).
pub(crate) struct Dec<'a> {
    bytes: &'a [u8],
}

impl<'a> Dec<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CanonError> {
        if self.bytes.len() < n {
            return Err(CanonError::Truncated);
        }
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        Ok(head)
    }

    pub fn finish(self) -> Result<(), CanonError> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(CanonError::TrailingBytes(self.bytes.len()))
        }
    }

    pub fn u8(&mut self) -> Result<u8, CanonError> {
        Ok(self.take(1)?[0])
    }

    pub fn bool(&mut self) -> Result<bool, CanonError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(CanonError::BadTag(t)),
        }
    }

    pub fn u32(&mut self) -> Result<u32, CanonError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, CanonError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn u128(&mut self) -> Result<u128, CanonError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    pub fn bytes(&mut self) -> Result<&'a [u8], CanonError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    pub fn time(&mut self) -> Result<SimTime, CanonError> {
        Ok(SimTime::from_fs(self.u64()?))
    }

    pub fn opt_time(&mut self) -> Result<Option<SimTime>, CanonError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.time()?)),
            t => Err(CanonError::BadTag(t)),
        }
    }

    pub fn bit(&mut self) -> Result<Bit, CanonError> {
        match self.u8()? {
            0 => Ok(Bit::Zero),
            1 => Ok(Bit::One),
            2 => Ok(Bit::X),
            t => Err(CanonError::BadTag(t)),
        }
    }

    pub fn value(&mut self) -> Result<Value, CanonError> {
        match self.u8()? {
            0 => Ok(Value::Bit(Bit::Zero)),
            1 => Ok(Value::Bit(Bit::One)),
            2 => Ok(Value::Bit(Bit::X)),
            3 => Ok(Value::Word(self.u64()?)),
            4 => Ok(Value::WordX),
            t => Err(CanonError::BadTag(t)),
        }
    }

    pub fn u64s(&mut self) -> Result<Vec<u64>, CanonError> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            out.push(self.u64()?);
        }
        Ok(out)
    }

    pub fn times(&mut self) -> Result<Vec<SimTime>, CanonError> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            out.push(self.time()?);
        }
        Ok(out)
    }

    pub fn bools(&mut self) -> Result<Vec<bool>, CanonError> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            out.push(self.bool()?);
        }
        Ok(out)
    }
}

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
        let mut e = Enc::new();
        e.buf.extend_from_slice(&MAGIC);
        e.u8(VERSION);
        e.u8(self.backend.tag());
        e.buf.extend_from_slice(&self.spec_hash);
        e.u64(self.cycle);
        e.time(self.now);
        e.u64(self.payload.len() as u64);
        e.buf.extend_from_slice(&self.payload);
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
        let version = d.u8()?;
        if version != VERSION {
            return Err(CanonError::BadVersion(version));
        }
        let backend = CheckpointBackend::from_tag(d.u8()?)?;
        let spec_hash: [u8; 16] = d.take(16)?.try_into().unwrap();
        let cycle = d.u64()?;
        let now = d.time()?;
        let payload_len = d.u64()? as usize;
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
                let mut dump = decode_event_payload(&self.payload)?;
                // The kernel snapshot carries its `now` in the header.
                dump.kernel.now = self.now;
                DecodedState::Event(dump)
            }
            CheckpointBackend::Compiled => {
                DecodedState::Compiled(decode_compiled_payload(&self.payload)?)
            }
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

fn encode_node_params(e: &mut Enc, p: NodeParams) {
    e.u32(p.hold);
    e.u32(p.recycle);
}

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
                e.bool(to_holder);
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
                e.bool(to_holder);
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
                e.bool(to_holder);
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
    let mut e = Enc::new();
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
        encode_node_params(&mut e, r.holder_node);
        encode_node_params(&mut e, r.peer_node);
        e.dur(r.delay_fwd);
        e.dur(r.delay_back);
        match r.peer_initial_recycle {
            None => e.u8(0),
            Some(v) => {
                e.u8(1);
                e.u32(v);
            }
        }
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

// --- event-backend payload -----------------------------------------------

/// Protocol fault-injector occurrence counters `(token, push, ack)`,
/// when an injector is installed.
pub(crate) type InjectorDump = Option<(Vec<u64>, Vec<u64>, Vec<u64>)>;

/// Everything the event backend needs to freeze: kernel, wrappers,
/// clocks, FIFOs, injector. Gathered by `System::checkpoint`, encoded
/// here.
pub(crate) struct EventStateDump {
    pub kernel: KernelSnapshot,
    pub wrappers: Vec<WrapperSnapshot>,
    /// Per clock: (parked, edges, stops).
    pub clocks: Vec<(bool, u64, u64)>,
    pub fifos: Vec<FifoSnapshot>,
    /// Protocol fault-injector occurrence counters, when installed.
    pub injector: InjectorDump,
}

fn encode_node_fsm(e: &mut Enc, n: &NodeFsmSnapshot) {
    encode_node_params(e, n.params);
    e.u8(match n.phase {
        crate::node::NodePhase::Holding => 0,
        crate::node::NodePhase::Recycling => 1,
        crate::node::NodePhase::Stopped => 2,
    });
    e.u32(n.hold_ctr);
    e.u32(n.recycle_ctr);
    e.bool(n.has_token);
    e.bool(n.hold_indefinitely);
    e.u64(n.passes);
    e.u64(n.stops);
    e.u64(n.early_tokens);
}

fn decode_node_fsm(d: &mut Dec<'_>) -> Result<NodeFsmSnapshot, CanonError> {
    let params = NodeParams::new(d.u32()?.max(1), d.u32()?.max(1));
    let phase = match d.u8()? {
        0 => crate::node::NodePhase::Holding,
        1 => crate::node::NodePhase::Recycling,
        2 => crate::node::NodePhase::Stopped,
        t => return Err(CanonError::BadTag(t)),
    };
    Ok(NodeFsmSnapshot {
        params,
        phase,
        hold_ctr: d.u32()?,
        recycle_ctr: d.u32()?,
        has_token: d.bool()?,
        hold_indefinitely: d.bool()?,
        passes: d.u64()?,
        stops: d.u64()?,
        early_tokens: d.u64()?,
    })
}

fn encode_trace(e: &mut Enc, t: &SbIoTrace) {
    e.bytes(&t.to_canonical_bytes());
}

fn decode_trace(d: &mut Dec<'_>) -> Result<SbIoTrace, CanonError> {
    SbIoTrace::from_canonical_bytes(d.bytes()?)
}

fn encode_injector(e: &mut Enc, injector: &InjectorDump) {
    match injector {
        None => e.u8(0),
        Some((tok, push, ack)) => {
            e.u8(1);
            e.u64s(tok);
            e.u64s(push);
            e.u64s(ack);
        }
    }
}

fn decode_injector(d: &mut Dec<'_>) -> Result<InjectorDump, CanonError> {
    match d.u8()? {
        0 => Ok(None),
        1 => Ok(Some((d.u64s()?, d.u64s()?, d.u64s()?))),
        t => Err(CanonError::BadTag(t)),
    }
}

pub(crate) fn encode_event_payload(dump: &EventStateDump) -> Vec<u8> {
    let mut e = Enc::new();
    // Kernel.
    e.bool(dump.kernel.started);
    e.u64(dump.kernel.next_seq);
    e.u64(dump.kernel.scheduled_total);
    e.u64(dump.kernel.events_fired);
    e.u64(dump.kernel.wakes);
    e.u32(dump.kernel.signals.len() as u32);
    for v in &dump.kernel.signals {
        e.value(v);
    }
    e.u32(dump.kernel.events.len() as u32);
    for ev in &dump.kernel.events {
        e.time(ev.time);
        e.u64(ev.seq);
        match ev.kind {
            KernelEventKind::Drive { sig, value } => {
                e.u8(0);
                e.u32(sig.as_raw());
                e.value(&value);
            }
            KernelEventKind::Timer { comp, tag } => {
                e.u8(1);
                e.u32(comp.as_raw());
                e.u64(tag);
            }
        }
    }
    e.bytes(&dump.kernel.delay_model);
    // Wrappers.
    e.u32(dump.wrappers.len() as u32);
    for w in &dump.wrappers {
        e.bit(w.prev_clk);
        e.u64(w.cycle);
        e.u64(w.dropped_words);
        e.u64(w.metastable_samples);
        e.u64(w.timing_violations);
        e.opt_time(w.last_edge);
        e.times(&w.edge_times);
        encode_trace(&mut e, &w.trace);
        e.u32(w.nodes.len() as u32);
        for (fsm, prev_tok, parity) in &w.nodes {
            encode_node_fsm(&mut e, fsm);
            e.bit(*prev_tok);
            e.bool(*parity);
        }
        e.bools(&w.input_ack_parity);
        e.bools(&w.output_req_parity);
        e.bytes(&w.logic);
    }
    // Clocks.
    e.u32(dump.clocks.len() as u32);
    for &(parked, edges, stops) in &dump.clocks {
        e.bool(parked);
        e.u64(edges);
        e.u64(stops);
    }
    // FIFOs.
    e.u32(dump.fifos.len() as u32);
    for f in &dump.fifos {
        e.u32(f.stages.len() as u32);
        for s in &f.stages {
            match s {
                None => e.u8(0),
                Some(w) => {
                    e.u8(1);
                    e.u64(*w);
                }
            }
        }
        e.u64(f.pushes);
        e.u64(f.pops);
        e.u64(f.max_occupancy as u64);
        e.u64(f.overruns);
        e.u64(f.underruns);
    }
    encode_injector(&mut e, &dump.injector);
    e.into_bytes()
}

pub(crate) fn decode_event_payload(bytes: &[u8]) -> Result<EventStateDump, CanonError> {
    let mut d = Dec::new(bytes);
    let started = d.bool()?;
    let next_seq = d.u64()?;
    let scheduled_total = d.u64()?;
    let events_fired = d.u64()?;
    let wakes = d.u64()?;
    let n_sigs = d.u32()? as usize;
    let mut signals = Vec::with_capacity(n_sigs.min(1 << 16));
    for _ in 0..n_sigs {
        signals.push(d.value()?);
    }
    let n_evs = d.u32()? as usize;
    let mut events = Vec::with_capacity(n_evs.min(1 << 16));
    for _ in 0..n_evs {
        let time = d.time()?;
        let seq = d.u64()?;
        let kind = match d.u8()? {
            0 => KernelEventKind::Drive {
                sig: SignalId::from_raw(d.u32()?),
                value: d.value()?,
            },
            1 => KernelEventKind::Timer {
                comp: ComponentId::from_raw(d.u32()?),
                tag: d.u64()?,
            },
            t => return Err(CanonError::BadTag(t)),
        };
        events.push(KernelEvent { time, seq, kind });
    }
    let delay_model = d.bytes()?.to_vec();
    let kernel = KernelSnapshot {
        now: SimTime::ZERO, // overwritten below from the header by the caller
        started,
        next_seq,
        scheduled_total,
        events_fired,
        wakes,
        signals,
        events,
        delay_model,
    };
    let n_wrappers = d.u32()? as usize;
    let mut wrappers = Vec::with_capacity(n_wrappers.min(1 << 12));
    for _ in 0..n_wrappers {
        let prev_clk = d.bit()?;
        let cycle = d.u64()?;
        let dropped_words = d.u64()?;
        let metastable_samples = d.u64()?;
        let timing_violations = d.u64()?;
        let last_edge = d.opt_time()?;
        let edge_times = d.times()?;
        let trace = decode_trace(&mut d)?;
        let n_nodes = d.u32()? as usize;
        let mut nodes = Vec::with_capacity(n_nodes.min(1 << 8));
        for _ in 0..n_nodes {
            let fsm = decode_node_fsm(&mut d)?;
            let prev_tok = d.bit()?;
            let parity = d.bool()?;
            nodes.push((fsm, prev_tok, parity));
        }
        let input_ack_parity = d.bools()?;
        let output_req_parity = d.bools()?;
        let logic = d.bytes()?.to_vec();
        wrappers.push(WrapperSnapshot {
            prev_clk,
            cycle,
            trace,
            dropped_words,
            metastable_samples,
            last_edge,
            timing_violations,
            edge_times,
            nodes,
            input_ack_parity,
            output_req_parity,
            logic,
        });
    }
    let n_clocks = d.u32()? as usize;
    let mut clocks = Vec::with_capacity(n_clocks.min(1 << 12));
    for _ in 0..n_clocks {
        clocks.push((d.bool()?, d.u64()?, d.u64()?));
    }
    let n_fifos = d.u32()? as usize;
    let mut fifos = Vec::with_capacity(n_fifos.min(1 << 12));
    for _ in 0..n_fifos {
        let n_stages = d.u32()? as usize;
        let mut stages = Vec::with_capacity(n_stages.min(1 << 8));
        for _ in 0..n_stages {
            stages.push(match d.u8()? {
                0 => None,
                1 => Some(d.u64()?),
                t => return Err(CanonError::BadTag(t)),
            });
        }
        let pushes = d.u64()?;
        let pops = d.u64()?;
        let max_occupancy = d.u64()? as usize;
        let overruns = d.u64()?;
        let underruns = d.u64()?;
        fifos.push(FifoSnapshot {
            stages,
            pushes,
            pops,
            max_occupancy,
            overruns,
            underruns,
        });
    }
    let injector = decode_injector(&mut d)?;
    d.finish()?;
    Ok(EventStateDump {
        kernel,
        wrappers,
        clocks,
        fifos,
        injector,
    })
}

// --- compiled-backend payload --------------------------------------------

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

pub(crate) fn encode_compiled_payload(dump: &CompiledStateDump) -> Vec<u8> {
    let mut e = Enc::new();
    e.time(dump.now);
    e.u64(dump.seq);
    e.u64(dump.events);
    e.u32(dump.clk.len() as u32);
    for &(phase, posedge) in &dump.clk {
        e.u128(phase);
        e.u128(posedge);
    }
    e.u32(dump.heap.len() as u32);
    for ev in &dump.heap {
        e.time(ev.time);
        e.u64(ev.seq);
        e.u8(ev.kind);
        e.u32(ev.a);
        e.u64(ev.b);
    }
    e.u32(dump.sbs.len() as u32);
    for sb in &dump.sbs {
        e.bool(sb.clk_high);
        e.bool(sb.parked);
        e.bool(sb.clken);
        e.u64(sb.edges);
        e.u64(sb.clock_stops);
        e.u64(sb.cycle);
        e.u64(sb.dropped_words);
        e.u64(sb.timing_violations);
        e.opt_time(sb.last_edge);
        e.times(&sb.edge_times);
        encode_trace(&mut e, &sb.trace);
        e.u32(sb.nodes.len() as u32);
        for n in &sb.nodes {
            encode_node_fsm(&mut e, n);
        }
        e.bytes(&sb.logic);
    }
    e.u32(dump.fifos.len() as u32);
    for f in &dump.fifos {
        e.u64(f.occ);
        e.u64s(&f.words);
        e.u32(f.pending.len() as u32);
        for &(t, stage) in &f.pending {
            e.time(t);
            e.u32(stage);
        }
        e.u64(f.pushes);
        e.u64(f.pops);
        e.u64(f.overruns);
        e.u64(f.underruns);
    }
    match &dump.jitter {
        None => e.u8(0),
        Some(b) => {
            e.u8(1);
            e.bytes(b);
        }
    }
    encode_injector(&mut e, &dump.injector);
    e.into_bytes()
}

pub(crate) fn decode_compiled_payload(bytes: &[u8]) -> Result<CompiledStateDump, CanonError> {
    let mut d = Dec::new(bytes);
    let now = d.time()?;
    let seq = d.u64()?;
    let events = d.u64()?;
    let n_clk = d.u32()? as usize;
    let mut clk = Vec::with_capacity(n_clk.min(1 << 12));
    for _ in 0..n_clk {
        clk.push((d.u128()?, d.u128()?));
    }
    let n_heap = d.u32()? as usize;
    let mut heap = Vec::with_capacity(n_heap.min(1 << 16));
    for _ in 0..n_heap {
        let time = d.time()?;
        let seq = d.u64()?;
        let kind = d.u8()?;
        if kind > 4 {
            return Err(CanonError::BadTag(kind));
        }
        let a = d.u32()?;
        let b = d.u64()?;
        heap.push(CompiledEvDump {
            time,
            seq,
            kind,
            a,
            b,
        });
    }
    let n_sbs = d.u32()? as usize;
    let mut sbs = Vec::with_capacity(n_sbs.min(1 << 12));
    for _ in 0..n_sbs {
        let clk_high = d.bool()?;
        let parked = d.bool()?;
        let clken = d.bool()?;
        let edges = d.u64()?;
        let clock_stops = d.u64()?;
        let cycle = d.u64()?;
        let dropped_words = d.u64()?;
        let timing_violations = d.u64()?;
        let last_edge = d.opt_time()?;
        let edge_times = d.times()?;
        let trace = decode_trace(&mut d)?;
        let n_nodes = d.u32()? as usize;
        let mut nodes = Vec::with_capacity(n_nodes.min(1 << 8));
        for _ in 0..n_nodes {
            nodes.push(decode_node_fsm(&mut d)?);
        }
        let logic = d.bytes()?.to_vec();
        sbs.push(CompiledSbDump {
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
    }
    let n_fifos = d.u32()? as usize;
    let mut fifos = Vec::with_capacity(n_fifos.min(1 << 12));
    for _ in 0..n_fifos {
        let occ = d.u64()?;
        let words = d.u64s()?;
        let n_pending = d.u32()? as usize;
        let mut pending = Vec::with_capacity(n_pending.min(1 << 12));
        for _ in 0..n_pending {
            let t = d.time()?;
            let stage = d.u32()?;
            pending.push((t, stage));
        }
        let pushes = d.u64()?;
        let pops = d.u64()?;
        let overruns = d.u64()?;
        let underruns = d.u64()?;
        fifos.push(CompiledFifoDump {
            occ,
            words,
            pending,
            pushes,
            pops,
            overruns,
            underruns,
        });
    }
    let jitter = match d.u8()? {
        0 => None,
        1 => Some(d.bytes()?.to_vec()),
        t => return Err(CanonError::BadTag(t)),
    };
    let injector = decode_injector(&mut d)?;
    d.finish()?;
    Ok(CompiledStateDump {
        now,
        seq,
        events,
        clk,
        heap,
        sbs,
        fifos,
        jitter,
        injector,
    })
}

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
