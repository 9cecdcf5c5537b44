//! # st-testkit — chip-level test and debug for synchro-tokens systems
//!
//! The paper's whole point is that deterministic GALS behaviour "supports
//! synchronous debug and test methodologies, including those based on
//! 1149.1 and P1500". This crate supplies that methodology layer:
//!
//! * [`TapFsm`] / [`TapPort`] — a complete IEEE 1149.1 Test Access Port
//!   (16-state controller, instruction register, data registers),
//! * [`Instruction`] — the public instructions plus the synchro-tokens
//!   private ones (hold/recycle/frequency registers, scan, token hold),
//! * [`P1500Wrapper`] — a P1500-style core wrapper (WIR/WBY/WBR),
//! * [`SelfTimedScanChain`] — the asynchronous scan chains whose heads
//!   and tails are synchronized to TCK,
//! * [`TestAccess`] — the §4.2 debug flows against a live
//!   [`System`](synchro_tokens::System): interlocked/independent TCK
//!   modes, deterministic breakpoints ("holding tokens indefinitely"),
//!   single-stepping, scan-based state read/write, and
//! * [`shmoo`] — clock-frequency shmooing that locates an SB's critical
//!   path by watching the deterministic I/O traces break,
//! * [`bist`] — LFSR pattern generation and MISR signature compaction;
//!   across GALS boundaries a golden signature is only meaningful
//!   because synchro-tokens makes response arrival cycles deterministic,
//! * [`chaos`] — differential fault-injection campaigns that attack the
//!   determinism invariant (analog jitter, protocol token/handshake
//!   faults, state SEUs) on both simulation backends and hold every run
//!   to a classified-outcome oracle,
//! * [`prop`] — the workspace's property-test runner, drawing every case
//!   from `st_sim::SimRng`, with [`case_budget`] as the one
//!   `PROPTEST_CASES` resolver.
//!
//! ## Example
//!
//! ```
//! use st_sim::time::SimDuration;
//! use st_testkit::{TestAccess, TckMode};
//! use synchro_tokens::scenarios::{build_e1, e1_spec};
//! use synchro_tokens::spec::SbId;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut sys = build_e1(e1_spec(), 0, 50);
//! sys.run_until_cycles(50, SimDuration::us(2000))?;
//! // Designate alpha as the Test SB and take a deterministic breakpoint.
//! let mut access = TestAccess::new(SbId(0), 0xC0DE_0001);
//! assert_eq!(access.mode(), TckMode::Interlocked);
//! let report = access.breakpoint(&mut sys, SimDuration::us(100))?;
//! assert!(!report.stopped.is_empty());
//! access.resume(&mut sys);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod bist;
pub mod chaos;
pub mod debug;
pub mod differential;
pub mod player;
pub mod prop;
pub mod registers;
pub mod scan;
pub mod tap;

pub use bist::{BistEngine, Lfsr, Misr};
pub use chaos::{
    chaos_jobs, configs_from_env, run_chaos_campaign, run_chaos_campaign_hooked, run_seu_sweep,
    seu_sweep_plans, ChaosJob, ChaosReport, ChaosRun, SeuSweepReport, SeuSweepRun,
};
pub use debug::{
    shmoo, shmoo_any_hooked, shmoo_grid, BreakpointReport, ShmooGridPoint, ShmooPoint, ShmooResult,
    TckMode, TestAccess,
};
pub use differential::case_budget;
pub use player::TapPort;
pub use registers::{DataRegister, Instruction, P1500Mode, P1500Wrapper, RegisterFile};
pub use scan::SelfTimedScanChain;
pub use tap::{TapFsm, TapState};
