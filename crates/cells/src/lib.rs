//! # st-cells — standard-cell area models for the synchro-tokens wrappers
//!
//! Reproduces the methodology behind the paper's Table 1: "the area
//! overhead of synchro-tokens has been approximated using a gate-level
//! model of the wrapper logic and layouts from a 0.25-micron cell
//! library, … using the average area of the library's 2-input gates as
//! the unit of measurement."
//!
//! * [`Cell`] — the cell library with transistor-count-derived areas,
//! * [`Netlist`] — cell inventories with area accounting,
//! * [`wrappers`] — generators for the node, SB interfaces, FIFO stages,
//!   scan cells and the TAP,
//! * [`structural`] / [`node_circuit`] — *wired* gate-level circuits
//!   with cycle-accurate evaluation, including a complete gate-level
//!   node checked against the behavioural FSM,
//! * [`compiled`] — the same circuits lowered to a flat op tape and
//!   evaluated 64 bit-parallel lanes at a time (one word bit per
//!   independent stimulus configuration),
//! * [`Table1`] — the fitted per-component area models.
//!
//! ## Example
//!
//! ```
//! use st_cells::Table1;
//!
//! let t = Table1::compute();
//! // The node is a fixed-size block; the paper reports 145 units.
//! assert!((t.node - 145.0).abs() < 5.0);
//! // Interfaces and stages grow linearly with the data width.
//! assert!(t.interface.eval(32) > t.interface.eval(8));
//! println!("{t}");
//! ```

#![forbid(unsafe_code)]

pub mod area;
pub mod compiled;
pub mod library;
pub mod netlist;
pub mod node_circuit;
pub mod structural;
pub mod wrapper_circuits;
pub mod wrappers;

pub use area::{LinearModel, Table1};
pub use compiled::{CompiledCircuit, LaneState, LANES};
pub use library::{average_two_input_transistors, Cell};
pub use netlist::Netlist;
pub use node_circuit::{build_node_circuit, NodeCircuit};
pub use structural::{Circuit, Net};
pub use wrapper_circuits::{
    build_fifo_stage_circuit, build_interface_circuit, FifoStageCircuit, InterfaceCircuit,
};
pub use wrappers::{
    down_counter_netlist, fifo_netlist, fifo_stage_netlist, interface_netlist, node_netlist,
    node_netlist_with_counter_bits, scan_cell_netlist, system_wrapper_netlist, tap_netlist,
    ChannelShape,
};
