//! # synchro-tokens — deterministic GALS wrappers
//!
//! A Rust reproduction of *"Eliminating Nondeterminism to Enable
//! Chip-Level Test of Globally-Asynchronous Locally-Synchronous SoCs"*
//! (Heath, Burleson, Harris — DATE 2004).
//!
//! A GALS SoC built from synchronous blocks (SBs) with independent local
//! clocks is normally **nondeterministic**: synchronizers and arbiters
//! make the *local cycle at which each asynchronous input is sensed*
//! depend on clock phase, process variation and noise, so the known-good
//! response of a chip-level test is not unique. Synchro-tokens adds
//! parameterized wrapper logic — token rings with counting **nodes**, an
//! escapement **stoppable clock**, and channel **interfaces** — that
//! pins every asynchronous transition to a deterministic local cycle
//! while the system stays globally asynchronous.
//!
//! ## Crate layout
//!
//! * [`spec`] — declarative system description (Figure 1A) + validation,
//! * [`node`] — the token-ring node FSM (Figure 2), as a pure machine,
//! * [`wrapper`] — the per-SB wrapper component (Figure 1B),
//! * [`logic`] — the [`SyncLogic`] trait your SB
//!   behaviour implements, plus stock sources/sinks/pipes,
//! * [`system`] — building and running whole systems,
//! * [`iotrace`] — per-SB I/O sequence capture (the determinism witness),
//! * [`rules`] — determinism/performance design rules and the §5
//!   closed-form models,
//! * [`deadlock`] — deadlock analysis (wait-for cycles) and the
//!   prevention rule,
//! * [`formal`] — bounded exhaustive verification that the node pair's
//!   enabled-cycle schedule is interleaving-independent (the paper's
//!   "future work" formal-methods item),
//! * [`determinism`] — the E1 campaign harness (delay sweeps, trace
//!   comparison),
//! * [`campaign`] — deterministic parallel campaign execution: a
//!   `std::thread::scope` job fan-out whose canonical-order merge keeps
//!   reports byte-identical to sequential runs,
//! * [`scenarios`] — the canonical systems used across tests, examples
//!   and benches (including the paper's 3-SB / 6-FIFO test case),
//! * [`compiled_system`] — the compiled fast-path backend: a built
//!   system lowered once to a flat typed-event engine, byte-identical
//!   to the event kernel and roughly an order of magnitude faster,
//! * [`faults`] — deterministic fault injection (analog jitter/drift,
//!   protocol token/handshake attacks, state SEUs) and the chaos
//!   oracle that turns the paper's determinism claim into an
//!   executable check.
//!
//! ## Example
//!
//! ```
//! use st_sim::prelude::*;
//! use synchro_tokens::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Two SBs, one token ring, one 16-bit channel with a 4-deep FIFO.
//! let mut spec = SystemSpec::default();
//! let tx = spec.add_sb("tx", SimDuration::ns(10));
//! let rx = spec.add_sb("rx", SimDuration::ns(12));
//! let ring = spec.add_ring(tx, rx, NodeParams::new(4, 12), SimDuration::ns(30));
//! spec.add_channel(tx, rx, ring, 16, 4, SimDuration::ns(1));
//!
//! let mut sys = SystemBuilder::new(spec)?
//!     .with_logic(tx, SequenceSource::new(0, 1))
//!     .with_logic(rx, SinkCollect::new())
//!     .build();
//! sys.run_until_cycles(100, SimDuration::us(100))?;
//! let sink: &SinkCollect = sys.logic(rx);
//! assert!(!sink.received.is_empty());
//! # Ok(())
//! # }
//! ```

pub mod batched_system;
pub mod campaign;
pub mod checkpoint;
pub mod compiled_system;
pub mod deadlock;
pub mod determinism;
mod drive;
pub mod faults;
pub mod formal;
pub mod iotrace;
pub mod logic;
pub mod node;
pub mod rules;
pub mod scenarios;
pub mod spec;
pub mod system;
pub mod wrapper;

pub use batched_system::BatchedSystem;
pub use campaign::{
    batch_limit_from_env, default_threads, effective_threads, run_jobs, run_jobs_hooked,
    threads_from_env, CampaignStats, CancelToken, Cancelled, RunHooks, DEFAULT_BATCH_LIMIT,
};
pub use checkpoint::{
    config_hash, Checkpoint, CheckpointBackend, CheckpointError, DecodedCheckpoint,
};
pub use compiled_system::{AnySystem, Backend, BackendKind, CompiledSystem};
pub use faults::{
    classify, run_with_plan, run_with_plan_resumed, AnalogFault, ChaosOutcome, Fault, FaultClass,
    FaultPlan, SeuFault, SeuTarget,
};
pub use iotrace::{CanonError, SbIoTrace, TraceRow, TraceRowRef};
pub use logic::{
    IdleLogic, PackingSource, PipeTransform, SbIo, SequenceSource, SinkCollect, SyncLogic,
    UnpackingSink,
};
pub use node::{NodeFsm, NodePhase};
pub use spec::{ChannelId, NodeParams, RingId, SbId, SpecError, SystemSpec};
pub use system::{RunOutcome, System, SystemBuilder};
pub use wrapper::WrapperMode;

/// Convenient glob import.
pub mod prelude {
    pub use crate::batched_system::BatchedSystem;
    pub use crate::campaign::{
        batch_limit_from_env, default_threads, effective_threads, run_jobs, run_jobs_hooked,
        threads_from_env, CampaignStats, CancelToken, Cancelled, RunHooks, DEFAULT_BATCH_LIMIT,
    };
    pub use crate::checkpoint::{
        config_hash, Checkpoint, CheckpointBackend, CheckpointError, DecodedCheckpoint,
    };
    pub use crate::compiled_system::{AnySystem, Backend, BackendKind, CompiledSystem};
    pub use crate::faults::{
        classify, run_with_plan, run_with_plan_resumed, AnalogFault, ChaosOutcome, Fault,
        FaultClass, FaultPlan, SeuFault, SeuTarget,
    };
    pub use crate::iotrace::SbIoTrace;
    pub use crate::logic::{
        IdleLogic, PipeTransform, SbIo, SequenceSource, SinkCollect, SyncLogic,
    };
    pub use crate::node::{NodeFsm, NodePhase};
    pub use crate::rules::ScaleRange;
    pub use crate::spec::{ChannelId, NodeParams, RingId, SbId, SpecError, SystemSpec};
    pub use crate::system::{RunOutcome, System, SystemBuilder};
}
