//! # st-bench — the experiment harness
//!
//! One module per paper artefact; one `repro_*` binary per table/figure
//! (see `src/bin/`), each printing the rows/series the paper reports.
//!
//! | Experiment | Paper artefact | Module | Binary |
//! |---|---|---|---|
//! | E1 | §5 determinism campaign | [`synchro_tokens::determinism`] | `repro_determinism` |
//! | E2 | Table 1 area models | [`st_cells::Table1`] + [`area_report`] | `repro_table1` |
//! | E3 | Figure 2 waveforms | [`fig2`] | `repro_fig2` |
//! | E4 | §5 throughput/latency vs STARI | [`perf`] | `repro_perf` |
//! | E5 | §5 width-compensation trade-off | [`tradeoff`] | `repro_tradeoff` |
//! | E6 | §5 deadlock determinism + rules | [`synchro_tokens::deadlock`] | `repro_deadlock` |
//! | E7 | §4.2 debug & test features | [`st_testkit::debug`] | `repro_debug` |
//! | E8 | future work: larger systems | [`scale`] | `repro_scale` |

#![forbid(unsafe_code)]

pub mod chart;
pub mod fig2;
pub mod harness;
pub mod pausible_baseline;
pub mod perf;
pub mod scale;
pub mod tradeoff;

use st_cells::{
    node_netlist, scan_cell_netlist, system_wrapper_netlist, tap_netlist, ChannelShape, Table1,
};

/// Extended E2 report: Table 1 plus the system-wide overhead of the E1
/// platform and the test-feature components ("the system-wide area
/// overhead is reasonably low").
pub fn area_report() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let table1 = Table1::compute();
    let _ = writeln!(out, "{table1}");
    let e1 = synchro_tokens::scenarios::e1_spec();
    let channels: Vec<ChannelShape> = e1
        .channels
        .iter()
        .map(|c| ChannelShape {
            bits: u64::from(c.bits),
            fifo_depth: c.fifo_depth as u64,
        })
        .collect();
    // Two nodes per ring.
    let nodes = 2 * e1.rings.len() as u64;
    let whole = system_wrapper_netlist(nodes, &channels);
    let nodes_only = node_netlist().area_ge() * nodes as f64;
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "E1 platform wrapper area: {:.0} GE total; nodes only {:.0} GE \
         ({} nodes — the paper's GALS-comparable overhead)",
        whole.area_ge(),
        nodes_only,
        nodes
    );
    let _ = writeln!(
        out,
        "test features: TAP(4-bit IR) = {:.0} GE, self-timed scan cell = {:.1} GE",
        tap_netlist(4).area_ge(),
        scan_cell_netlist().area_ge()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_report_has_all_sections() {
        let r = area_report();
        assert!(r.contains("Table 1"));
        assert!(r.contains("paper: 145"));
        assert!(r.contains("E1 platform wrapper area"));
        assert!(r.contains("TAP"));
    }
}
