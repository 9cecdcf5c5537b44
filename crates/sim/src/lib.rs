//! # st-sim — a deterministic discrete-event simulation kernel
//!
//! This crate is the simulation substrate for the reproduction of
//! *"Eliminating Nondeterminism to Enable Chip-Level Test of
//! Globally-Asynchronous Locally-Synchronous SoCs"* (Heath, Burleson,
//! Harris — DATE 2004). The paper validated synchro-tokens in Verilog,
//! relying on its "ability to specify nonzero delays and concurrent
//! events"; `st-sim` provides the same facilities natively in Rust:
//!
//! * femtosecond-resolution [`time::SimTime`] stamps,
//! * transport-delay signal drives with delta cycles,
//! * a [`component::Component`] process model with sensitivity lists and
//!   timers,
//! * waveform capture with VCD export and ASCII rendering
//!   ([`trace::TraceBuffer`]),
//! * a seeded RNG ([`rng::SimRng`]) as the *only* source of randomness,
//!   so every run is reproducible, the workspace's one stable hash
//!   family ([`hash`]) and its one fail-closed byte codec ([`canon`]).
//!
//! The kernel itself is strictly deterministic; the GALS nondeterminism the
//! paper studies is modelled *on top of it* (metastable synchronizers and
//! arbiters in `st-channel`), as sensitivity to swept delay parameters.
//!
//! ## Example
//!
//! ```
//! use st_sim::prelude::*;
//!
//! struct Blinker { led: BitSignal }
//! impl Component for Blinker {
//!     fn wake(&mut self, ctx: &mut Ctx<'_>, cause: Wake) {
//!         if matches!(cause, Wake::Start | Wake::Timer(_)) {
//!             ctx.toggle_bit(self.led, SimDuration::ZERO);
//!             ctx.set_timer(SimDuration::ns(10), 0);
//!         }
//!     }
//! }
//!
//! # fn main() -> Result<(), st_sim::SimError> {
//! let mut b = SimBuilder::new();
//! let led = b.add_bit_signal_init("led", Bit::Zero);
//! b.trace(led.id());
//! b.add_component("blinker", Blinker { led });
//! let mut sim = b.build();
//! sim.run_for(SimDuration::ns(95))?;
//! assert_eq!(sim.trace().changes(led.id()).count(), 10);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod canon;
pub mod component;
pub mod event;
pub mod hash;
pub mod kernel;
pub mod rng;
pub mod time;
pub mod trace;
pub mod value;

pub use component::{Component, ComponentId, Handle, Wake};
pub use kernel::{
    BitSignal, Ctx, DelayModel, KernelEvent, KernelEventKind, KernelSnapshot, RunSummary, SignalId,
    SimBuilder, SimError, Simulator, WordSignal,
};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use trace::TraceBuffer;
pub use value::{Bit, Value};

/// Convenient glob import for model code and tests.
pub mod prelude {
    pub use crate::component::{Component, ComponentId, Handle, Wake};
    pub use crate::kernel::{
        BitSignal, Ctx, DelayModel, KernelEvent, KernelEventKind, KernelSnapshot, RunSummary,
        SignalId, SimBuilder, SimError, Simulator, WordSignal,
    };
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::value::{Bit, Value};
}
