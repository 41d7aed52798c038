//! Shared experiment plumbing for the figure/table harnesses.

use rtm_core::relocation::find_aux_sites;
use rtm_core::verify::TransparencyHarness;
use rtm_fpga::geom::{ClbCoord, Rect};
use rtm_fpga::part::Part;
use rtm_fpga::Device;
use rtm_netlist::techmap::{map_to_luts, MappedNetlist};
use rtm_netlist::Netlist;
use rtm_sim::design::implement;
use rtm_sim::place::CellLoc;

/// Implements `netlist` on a fresh XCV200 in a square region big enough
/// for its cells, returning a ready transparency harness.
///
/// # Panics
///
/// Panics on implementation failure (bench circuits are sized to fit).
pub fn build_harness(netlist: &Netlist) -> (MappedNetlist, TransparencyHarness<'_>) {
    let mapped = map_to_luts(netlist).expect("benchmark circuits map");
    let mut dev = Device::new(Part::Xcv200);
    let needed = mapped.len() + mapped.n_inputs + mapped.outputs.len();
    // Density-1 placement with margin; clamp to the array.
    let side = ((needed as f64).sqrt().ceil() as u16 + 3).min(26);
    let region = Rect::new(ClbCoord::new(1, 1), side, side);
    let placed = implement(&mut dev, &mapped, region).expect("benchmark circuits implement");
    (
        mapped.clone(),
        TransparencyHarness::new(netlist, dev, placed),
    )
}

/// The nearest free destination slot for relocating `src` (the paper
/// recommends nearby moves, §3).
///
/// # Panics
///
/// Panics if the device is full (cannot happen in these experiments).
pub fn nearby_free_slot(h: &TransparencyHarness<'_>, src: CellLoc) -> CellLoc {
    find_aux_sites(h.device(), src.0, 1, &[src]).expect("free slot exists")[0]
}

/// A free slot at (approximately) `distance` CLBs from `src`, for the
/// move-distance ablation.
///
/// # Panics
///
/// Panics if no free slot exists in that direction.
pub fn distant_free_slot(h: &TransparencyHarness<'_>, src: CellLoc, distance: u16) -> CellLoc {
    let dev = h.device();
    let target = ClbCoord::new(
        (src.0.row + distance).min(dev.rows() - 1),
        (src.0.col + distance).min(dev.cols() - 1),
    );
    find_aux_sites(dev, target, 1, &[src]).expect("free slot exists")[0]
}

/// Indices of the sequential cells of the harness's design.
pub fn sequential_cells(h: &TransparencyHarness<'_>) -> Vec<usize> {
    (0..h.placed().design.cells.len())
        .filter(|i| h.placed().design.cells[*i].storage.is_sequential())
        .collect()
}

/// Prints a rule line matching `width`.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}
