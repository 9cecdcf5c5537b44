//! # st-channel — asynchronous communication substrate
//!
//! Event-level models of the asynchronous circuits a GALS SoC is built
//! from, as used by the synchro-tokens reproduction:
//!
//! * [`SelfTimedFifo`] — bundled-data self-timed FIFO pipelines (the
//!   optional channel pipelining of the paper's Figure 1),
//! * [`build_stari_link`] — the STARI \[13\] baseline used in the §5
//!   performance comparison,
//! * [`TwoFlopSynchronizer`] and [`Mutex`] — the *nondeterministic*
//!   primitives (§1) whose avoidance is the whole point of synchro-tokens;
//!   they power the bypass-mode baseline of experiment E1.
//!
//! Nondeterminism here is modelled honestly: a sample or arbitration that
//! falls inside a metastability window resolves through the kernel's
//! seeded RNG, so a *given* configuration is reproducible while *swept*
//! configurations (delay/phase variation, as in the paper) diverge.
//!
//! ## Example
//!
//! ```
//! use st_sim::prelude::*;
//! use st_channel::{FifoPorts, SelfTimedFifo};
//!
//! # fn main() -> Result<(), st_sim::SimError> {
//! let mut b = SimBuilder::new();
//! let ports = FifoPorts::declare(&mut b, "ch0");
//! let fifo = SelfTimedFifo::new(ports, 4, SimDuration::ns(2)).install(&mut b, "ch0");
//! let mut sim = b.build();
//! // Push a word from testbench code.
//! sim.drive(ports.put_data.id(), Value::Word(0xCAFE), SimDuration::ZERO);
//! sim.drive(ports.put_req.id(), Value::from(true), SimDuration::ns(1));
//! sim.run_for(SimDuration::ns(20))?;
//! assert_eq!(sim.word(ports.head_data), Some(0xCAFE));
//! assert_eq!(sim.get(fifo).occupancy(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod arbiter;
pub mod fifo;
pub mod handshake;
pub mod stari;
pub mod sync;

pub use arbiter::{Mutex, MutexSpec, Side};
pub use fifo::{FifoPorts, FifoSnapshot, SelfTimedFifo};
pub use handshake::{
    FourPhaseReceiver, FourPhaseSender, HandshakeMonitor, HandshakePorts, HandshakeSpec,
};
pub use stari::{build_stari_link, stari_latency_model, StariLink, StariSpec, StariStats};
pub use sync::{SynchronizerSpec, TwoFlopSynchronizer};
