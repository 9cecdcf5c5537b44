//! # synchro-tokens-repro — top-level facade
//!
//! A complete Rust reproduction of *"Eliminating Nondeterminism to
//! Enable Chip-Level Test of Globally-Asynchronous Locally-Synchronous
//! SoCs"* (Heath, Burleson, Harris — DATE 2004).
//!
//! This crate re-exports the whole workspace and hosts the runnable
//! examples (`examples/`) and cross-crate integration tests (`tests/`).
//! Start with [`synchro_tokens`] (the wrappers themselves), then
//! [`st_testkit`] (TAP/scan/debug) and [`st_bench`] (experiment
//! harness). See `README.md`, `DESIGN.md` and `EXPERIMENTS.md` at the
//! repository root.

#![forbid(unsafe_code)]

pub use st_bench;
pub use st_cells;
pub use st_channel;
pub use st_clocking;
pub use st_sim;
pub use st_testkit;
pub use synchro_tokens;

/// Everything a downstream experiment typically needs.
pub mod prelude {
    pub use st_sim::prelude::*;
    pub use synchro_tokens::prelude::*;
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reaches_every_crate() {
        // A compile-time smoke check that the re-exports stay wired.
        let _ = crate::st_cells::Table1::compute();
        let _ = crate::synchro_tokens::scenarios::producer_consumer_spec();
        let _ = crate::st_testkit::TapFsm::new();
    }
}
