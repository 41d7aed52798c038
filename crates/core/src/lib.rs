//! # rtm-core
//!
//! The paper's contribution: **dynamic relocation** of live logic on a
//! partially reconfigurable FPGA, and the run-time manager built on it.
//!
//! > "A new concept is introduced — dynamic relocation — which enables
//! > the relocation of each FPGA CLB and of its associated
//! > interconnections, even if the CLB is part of a function that is
//! > actually being used by an application." (Gericota et al., DATE 2003)
//!
//! The crate provides:
//!
//! * [`relocation`] — the two-phase CLB relocation procedure (Fig. 2),
//!   the auxiliary relocation circuit and state-transfer protocol for
//!   gated-clock and asynchronous cells (Fig. 3/4), and two-phase routing
//!   relocation (Fig. 5), all executed as ordinary device edits whose
//!   transparency is *observed*, not assumed;
//! * [`cost`] — the reconfiguration cost model (frames → interface bits →
//!   wall time) that reproduces the paper's 22.6 ms Boundary Scan figure;
//! * [`verify`] — the transparency harness: a lock-step golden/device
//!   comparison clocked through every relocation step;
//! * [`manager`] — the FPGA rearrangement & programming tool's engine
//!   (§4): on-line allocation, rearrangement planning, staged execution
//!   via dynamic relocation, and configuration recovery;
//! * a CLI binary `frpt` exposing the manager (the Fig. 7 tool, sans GUI).
//!
//! ## Example: relocate a live CLB cell and prove nobody noticed
//!
//! ```
//! use rtm_fpga::{Device, part::Part, geom::{ClbCoord, Rect}};
//! use rtm_netlist::{random::RandomCircuit, techmap::map_to_luts};
//! use rtm_sim::design::implement;
//! use rtm_core::verify::TransparencyHarness;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let netlist = RandomCircuit::free_running(4, 12, 1).generate();
//! let mapped = map_to_luts(&netlist)?;
//! let mut dev = Device::new(Part::Xcv200);
//! let region = Rect::new(ClbCoord::new(4, 4), 8, 8);
//! let placed = implement(&mut dev, &mapped, region)?;
//!
//! let mut harness = TransparencyHarness::new(&netlist, dev, placed);
//! harness.run_cycles(20)?;                       // application running…
//! let src = harness.placed().cell_loc(0);
//! let dst = (ClbCoord::new(14, 14), 0);
//! let report = harness.relocate_cell(src, dst)?; // …while we move a CLB
//! harness.run_cycles(20)?;
//! assert!(harness.transparent(), "no glitch, no state loss, no divergence");
//! assert!(report.frames_total() > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod cost;
pub mod error;
pub mod manager;
pub mod relocation;
pub mod verify;

pub use error::{CoreError, LoadFailureReason};
pub use manager::{
    AdmissionPreview, AdmissionTicket, DefragPlan, DefragReport, DeviceSummary, ExtractedFunction,
    FunctionId, LoadReport, ManagerStatus, PlanStats, RoomPlan, RunTimeManager,
};
pub use relocation::{RelocationClass, RelocationReport, StepKind};
