//! # st-clocking — local clock generation for GALS synchronous blocks
//!
//! Clock generators used by the synchro-tokens reproduction:
//!
//! * [`StoppableClock`] — the escapement organization of Chapiro \[11\]:
//!   a ring oscillator whose enable interrupts the ring, giving a
//!   synchronous stop and an asynchronous restart with no runt pulses.
//!   This is the clock inside every synchro-tokens wrapper.
//! * [`PausibleClock`] — the arbiter-in-the-ring clock of Yun & Dooply
//!   \[9\]; **nondeterministic** by construction (used as a baseline).
//! * [`FreeClock`] — a plain oscillator for bypass mode and testers.
//! * [`ClockDivider`] — digital frequency division.
//! * [`CycleCounter`] — utility to count local clock cycles.
//!
//! The distinction between the first two is the heart of the paper: a
//! stoppable clock *scheduled by counters* never decides between an
//! asynchronous event and a clock edge, so the local cycle at which each
//! input is sensed is deterministic; a pausible clock arbitrates, so it
//! is not.
//!
//! ## Example
//!
//! ```
//! use st_sim::prelude::*;
//! use st_clocking::{StoppableClock, StoppableClockSpec};
//!
//! # fn main() -> Result<(), st_sim::SimError> {
//! let mut b = SimBuilder::new();
//! let clk = b.add_bit_signal("clk");
//! let clken = b.add_bit_signal_init("clken", Bit::One);
//! let spec = StoppableClockSpec::from_period(SimDuration::ns(10));
//! let clock = b.add_component("clock", StoppableClock::new(spec, clk, clken));
//! b.watch(clock.id(), clken.id());
//! let mut sim = b.build();
//! // Stop the clock after 22 ns, restart it at 60 ns.
//! sim.drive(clken.id(), Value::from(false), SimDuration::ns(22));
//! sim.drive(clken.id(), Value::from(true), SimDuration::ns(60));
//! sim.run_for(SimDuration::ns(100))?;
//! assert_eq!(sim.get(clock).stops(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod divider;
pub mod free;
pub mod pausible;
pub mod stoppable;

pub use divider::ClockDivider;
pub use free::{CycleCounter, FreeClock};
pub use pausible::{PausibleClock, PausibleClockSpec};
pub use stoppable::{StoppableClock, StoppableClockSpec};
