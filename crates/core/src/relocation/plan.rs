//! Relocation classification, step vocabulary and auxiliary-site search.

use crate::error::CoreError;
use rtm_fpga::cell::LogicCell;
use rtm_fpga::clb::CELLS_PER_CLB;
use rtm_fpga::geom::ClbCoord;
use rtm_fpga::routing::{RouteNode, Wire};
use rtm_fpga::storage::{ClockingClass, StorageKind};
use rtm_fpga::Device;
use rtm_sim::place::CellLoc;
use std::fmt;

/// Which relocation procedure a cell requires (paper §2's three
/// implementation classes, plus purely combinational cells that need no
/// state transfer at all).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelocationClass {
    /// No storage: the two-phase copy alone is sufficient.
    Combinational,
    /// Synchronous, free-running clock: two-phase copy; the replica
    /// flip-flop acquires state from the paralleled inputs within one
    /// clock cycle.
    FreeRunning,
    /// Synchronous, gated clock: requires the auxiliary relocation
    /// circuit (Fig. 3) to transfer state coherently.
    GatedClock,
    /// Asynchronous (transparent latch): same auxiliary circuit with the
    /// latch enable in place of the clock enable.
    Asynchronous,
}

impl RelocationClass {
    /// Classifies a cell configuration.
    pub fn of(config: &LogicCell) -> RelocationClass {
        match (config.storage, config.clocking) {
            (StorageKind::None, _) => RelocationClass::Combinational,
            (_, ClockingClass::FreeRunning) => RelocationClass::FreeRunning,
            (_, ClockingClass::GatedClock) => RelocationClass::GatedClock,
            (_, ClockingClass::Asynchronous) => RelocationClass::Asynchronous,
        }
    }

    /// True if the class needs the auxiliary relocation circuit.
    pub fn needs_auxiliary(&self) -> bool {
        matches!(
            self,
            RelocationClass::GatedClock | RelocationClass::Asynchronous
        )
    }
}

impl fmt::Display for RelocationClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RelocationClass::Combinational => "combinational",
            RelocationClass::FreeRunning => "free-running",
            RelocationClass::GatedClock => "gated-clock",
            RelocationClass::Asynchronous => "asynchronous",
        };
        f.write_str(s)
    }
}

/// One step of the relocation procedure (the Fig. 4 flow, refined: the
/// atomic D-source switch is split out of the aux disconnect so a single
/// frame write performs it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepKind {
    /// Copy the CLB internal configuration to the replica (phase 1 start).
    CopyConfig,
    /// Build and connect the auxiliary relocation circuit; parallel the
    /// CLB input signals.
    ConnectAux,
    /// Parallel the CLB input signals (classes without aux circuit).
    ParallelInputs,
    /// Activate the relocation and clock-enable control (aux LUT rewrite).
    ActivateControl,
    /// Deactivate the clock-enable control.
    DeactivateControl,
    /// Connect the clock-enable inputs of both CLBs.
    ConnectCeBoth,
    /// Switch the replica's D source from the auxiliary path to its own
    /// LUT (single-bit configuration write).
    SwitchDSource,
    /// Disconnect all auxiliary relocation circuit signals and free the
    /// auxiliary cells.
    DisconnectAux,
    /// Place the CLB outputs in parallel (phase 2 start).
    ParallelOutputs,
    /// Disconnect the original CLB outputs.
    DisconnectOrigOutputs,
    /// Disconnect the original CLB inputs and free the original cell.
    DisconnectOrigInputs,
}

impl StepKind {
    /// Clock cycles the system must run after this step before the next
    /// one (the ">2 CLK" / ">1 CLK" wait points of Fig. 4).
    pub fn wait_cycles(&self) -> u32 {
        match self {
            StepKind::ActivateControl => 3, // > 2 CLK pulses
            StepKind::ParallelInputs => 2,  // replica FF captures
            StepKind::ParallelOutputs => 2, // > 1 CLK pulse
            StepKind::DeactivateControl
            | StepKind::ConnectCeBoth
            | StepKind::SwitchDSource
            | StepKind::DisconnectAux => 1,
            _ => 1,
        }
    }
}

impl fmt::Display for StepKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// True if the cell slot is unused on the device and no routed net holds
/// any of its pins.
pub fn free_slot(dev: &Device, loc: CellLoc) -> bool {
    let Ok(clb) = dev.clb(loc.0) else {
        return false;
    };
    if clb.cells[loc.1].is_used() {
        return false;
    }
    let c = loc.1 as u8;
    let pins = [
        Wire::CellOut(c),
        Wire::CellCe(c),
        Wire::CellDx(c),
        Wire::CellIn(c, 0),
        Wire::CellIn(c, 1),
        Wire::CellIn(c, 2),
        Wire::CellIn(c, 3),
    ];
    pins.iter()
        .all(|w| dev.node_holds(RouteNode::new(loc.0, *w)) == 0)
}

/// Finds `count` free cell slots near `center` (spiral search by
/// Manhattan distance) for the auxiliary relocation circuit, excluding
/// `exclude` slots.
///
/// # Errors
///
/// Returns [`CoreError::NoAuxiliarySite`] if the search exhausts the
/// device.
pub fn find_aux_sites(
    dev: &Device,
    center: ClbCoord,
    count: usize,
    exclude: &[CellLoc],
) -> Result<Vec<CellLoc>, CoreError> {
    let mut found = Vec::with_capacity(count);
    let max_radius = (dev.rows() + dev.cols()) as i32;
    for radius in 0..=max_radius {
        for dr in -radius..=radius {
            let rem = radius - dr.abs();
            let dcs: &[i32] = if rem == 0 { &[0] } else { &[-rem, rem] };
            for &dc in dcs {
                let Some(tile) = center.offset(dr, dc) else {
                    continue;
                };
                if tile.row >= dev.rows() || tile.col >= dev.cols() {
                    continue;
                }
                for cell in 0..CELLS_PER_CLB {
                    let loc = (tile, cell);
                    if exclude.contains(&loc) || found.contains(&loc) {
                        continue;
                    }
                    if free_slot(dev, loc) {
                        found.push(loc);
                        if found.len() == count {
                            return Ok(found);
                        }
                    }
                }
            }
        }
    }
    Err(CoreError::NoAuxiliarySite { near: center })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtm_fpga::lut::Lut;
    use rtm_fpga::part::Part;
    use rtm_sim::route::NetDb;

    #[test]
    fn classification() {
        let mut c = LogicCell::default();
        assert_eq!(RelocationClass::of(&c), RelocationClass::Combinational);
        c.storage = StorageKind::FlipFlop;
        c.clocking = ClockingClass::FreeRunning;
        assert_eq!(RelocationClass::of(&c), RelocationClass::FreeRunning);
        c.clocking = ClockingClass::GatedClock;
        assert_eq!(RelocationClass::of(&c), RelocationClass::GatedClock);
        assert!(RelocationClass::of(&c).needs_auxiliary());
        c.storage = StorageKind::Latch;
        c.clocking = ClockingClass::Asynchronous;
        assert_eq!(RelocationClass::of(&c), RelocationClass::Asynchronous);
        assert!(!RelocationClass::Combinational.needs_auxiliary());
        assert!(!RelocationClass::FreeRunning.needs_auxiliary());
    }

    #[test]
    fn wait_points_match_figure_4() {
        assert!(StepKind::ActivateControl.wait_cycles() > 2, "> 2 CLK");
        assert!(StepKind::ParallelOutputs.wait_cycles() > 1, "> 1 CLK");
        assert!(StepKind::CopyConfig.wait_cycles() >= 1);
    }

    #[test]
    fn free_slot_detects_usage() {
        let mut dev = Device::new(Part::Xcv50);
        let loc = (ClbCoord::new(3, 3), 1);
        assert!(free_slot(&dev, loc));
        let cfg = LogicCell {
            lut: Lut::constant(true),
            ..LogicCell::default()
        };
        dev.set_cell(loc.0, loc.1, cfg).unwrap();
        assert!(!free_slot(&dev, loc));
    }

    #[test]
    fn free_slot_respects_routing() {
        let mut dev = Device::new(Part::Xcv50);
        let mut db = NetDb::new();
        let src = RouteNode::new(ClbCoord::new(2, 2), Wire::CellOut(0));
        let sink = RouteNode::new(ClbCoord::new(2, 3), Wire::CellIn(0, 1));
        db.route_net(&mut dev, src, &[sink], None).unwrap();
        // Pin occupied by the net -> slot not free even though unconfigured.
        assert!(!free_slot(&dev, (ClbCoord::new(2, 3), 0)));
        assert!(free_slot(&dev, (ClbCoord::new(2, 3), 1)));
    }

    #[test]
    fn aux_site_search_finds_nearby() {
        let dev = Device::new(Part::Xcv50);
        let center = ClbCoord::new(8, 8);
        let sites = find_aux_sites(&dev, center, 3, &[(center, 0)]).unwrap();
        assert_eq!(sites.len(), 3);
        for (tile, _) in &sites {
            assert!(center.manhattan(*tile) <= 1, "sites should be close");
        }
        assert!(!sites.contains(&(center, 0)));
    }

    #[test]
    fn aux_site_search_fails_on_full_device() {
        let mut dev = Device::new(Part::Xcv50);
        let cfg = LogicCell {
            lut: Lut::constant(true),
            ..LogicCell::default()
        };
        for tile in dev.bounds().iter() {
            for c in 0..CELLS_PER_CLB {
                dev.set_cell(tile, c, cfg).unwrap();
            }
        }
        let err = find_aux_sites(&dev, ClbCoord::new(0, 0), 1, &[]).unwrap_err();
        assert!(matches!(err, CoreError::NoAuxiliarySite { .. }));
    }
}
