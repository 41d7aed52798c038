//! End-to-end implementation: mapped netlist → configured, routed device.

use crate::error::SimError;
use crate::place::{place, CellLoc, Placement};
use crate::route::{NetDb, NetId, RouteStats};
use rtm_fpga::cell::LogicCell;
use rtm_fpga::geom::Rect;
use rtm_fpga::lut::Lut;
use rtm_fpga::routing::{RouteNode, Wire};
use rtm_fpga::Device;
use rtm_netlist::techmap::{CellSrc, MappedNetlist};

/// A design implemented on a device: cells configured, nets routed, and
/// the net database kept live for later rearrangement.
#[derive(Debug, Clone)]
pub struct PlacedDesign {
    /// The mapped netlist this implements.
    pub design: MappedNetlist,
    /// Where every cell (and input feed cell) sits.
    pub placement: Placement,
    /// The live net database (owned by this design).
    pub netdb: NetDb,
    /// Net driven by each design cell (`None` if the cell has no fan-out).
    pub cell_nets: Vec<Option<NetId>>,
    /// Net driven by each input feed cell.
    pub feed_nets: Vec<Option<NetId>>,
}

impl PlacedDesign {
    /// Location of mapped cell `i`.
    pub fn cell_loc(&self, i: usize) -> CellLoc {
        self.placement.cell_locs[i]
    }

    /// Location of the feed cell for primary input `i`.
    pub fn feed_loc(&self, i: usize) -> CellLoc {
        self.placement.feed_locs[i]
    }

    /// The observation location of each primary output: its tap cell.
    /// Taps consume the producing net, so these locations are stable
    /// across relocations of the producing cells (like the device's
    /// IOBs).
    pub fn output_locs(&self) -> Vec<(String, CellLoc)> {
        self.design
            .outputs
            .iter()
            .zip(&self.placement.tap_locs)
            .map(|((name, _), loc)| (name.clone(), *loc))
            .collect()
    }

    /// The output route node of a cell location.
    pub fn out_node(loc: CellLoc) -> RouteNode {
        RouteNode::new(loc.0, Wire::CellOut(loc.1 as u8))
    }

    /// The input-pin route node of a cell location.
    pub fn in_node(loc: CellLoc, pin: usize) -> RouteNode {
        RouteNode::new(loc.0, Wire::CellIn(loc.1 as u8, pin as u8))
    }

    /// The clock-enable route node of a cell location.
    pub fn ce_node(loc: CellLoc) -> RouteNode {
        RouteNode::new(loc.0, Wire::CellCe(loc.1 as u8))
    }

    /// The FF-bypass route node of a cell location.
    pub fn dx_node(loc: CellLoc) -> RouteNode {
        RouteNode::new(loc.0, Wire::CellDx(loc.1 as u8))
    }
}

/// The device cell configuration used for input feed cells: an unused
/// pass-through LUT whose output value the simulator forces.
pub fn feed_cell_config() -> LogicCell {
    LogicCell {
        lut: Lut::passthrough(0),
        ..LogicCell::default()
    }
}

/// A constant-0 combinational cell encodes to all-zero configuration
/// bits, which is indistinguishable from an *unused* cell. For such cells
/// we set the (ignored-for-combinational) gated-clock bit as a presence
/// marker so the device view keeps them alive.
pub fn mark_used(mut config: LogicCell) -> LogicCell {
    if config == LogicCell::default() {
        config.clocking = rtm_fpga::storage::ClockingClass::GatedClock;
    }
    config
}

/// Implements `design` on `dev` inside `region`: places cells, configures
/// the device and routes every net (kept within `region`). The routes
/// avoid every node the nets of other designs on `dev` hold.
///
/// # Errors
///
/// Returns placement errors for undersized regions and
/// [`SimError::Unroutable`] on congestion. A failed implementation
/// releases every net it routed, but leaves its cell configuration for
/// the caller to restore.
pub fn implement(
    dev: &mut Device,
    design: &MappedNetlist,
    region: Rect,
) -> Result<PlacedDesign, SimError> {
    implement_counted(dev, design, region, &mut RouteStats::default())
}

/// Like [`implement`], adding the router's work to `route_stats`
/// whether or not the implementation succeeds.
///
/// # Errors
///
/// As [`implement`].
pub fn implement_counted(
    dev: &mut Device,
    design: &MappedNetlist,
    region: Rect,
    route_stats: &mut RouteStats,
) -> Result<PlacedDesign, SimError> {
    let placement = place(design, region, dev.bounds())?;

    // Configure feed and output-tap cells (both pass-through LUTs).
    for loc in placement.feed_locs.iter().chain(placement.tap_locs.iter()) {
        dev.set_cell(loc.0, loc.1, feed_cell_config())?;
    }
    // Configure design cells and initial state.
    for (i, cell) in design.cells.iter().enumerate() {
        let loc = placement.cell_locs[i];
        let config = mark_used(LogicCell {
            lut: cell.lut,
            storage: cell.storage,
            clocking: cell.clocking,
            registered_output: cell.registered_output,
            ram_mode: false,
            uses_ce: cell.ce.is_some(),
            d_bypass: false,
        });
        dev.set_cell(loc.0, loc.1, config)?;
        if cell.storage.is_sequential() {
            dev.set_cell_state(loc.0, loc.1, cell.init)?;
        }
    }

    // Collect sinks per producer.
    let n_cells = design.cells.len();
    let n_inputs = design.n_inputs;
    let mut cell_sinks: Vec<Vec<RouteNode>> = vec![Vec::new(); n_cells];
    let mut feed_sinks: Vec<Vec<RouteNode>> = vec![Vec::new(); n_inputs];
    let mut add_sink = |src: &CellSrc, sink: RouteNode| match src {
        CellSrc::Input(i) => feed_sinks[*i].push(sink),
        CellSrc::Cell(i) => cell_sinks[*i].push(sink),
    };
    for (i, cell) in design.cells.iter().enumerate() {
        let loc = placement.cell_locs[i];
        for (pin, src) in cell.inputs.iter().enumerate() {
            add_sink(src, PlacedDesign::in_node(loc, pin));
        }
        if let Some(ce) = &cell.ce {
            add_sink(ce, PlacedDesign::ce_node(loc));
        }
    }
    // Every primary output's tap consumes the producing net.
    for (i, (_, src)) in design.outputs.iter().enumerate() {
        add_sink(src, PlacedDesign::in_node(placement.tap_locs[i], 0));
    }

    let mut netdb = NetDb::new();
    let routed = route_nets(
        dev,
        &mut netdb,
        &placement,
        &feed_sinks,
        &cell_sinks,
        region,
    );
    route_stats.merge(netdb.route_stats());
    let (feed_nets, cell_nets) = routed.inspect_err(|_| netdb.remove_all(dev))?;
    Ok(PlacedDesign {
        design: design.clone(),
        placement,
        netdb,
        cell_nets,
        feed_nets,
    })
}

/// The net driven by each producer (`None` for producers without sinks).
type NetIds = Vec<Option<NetId>>;

/// Routes every producer's net inside `region`, feeds first (their
/// fan-out tends to be widest). Returns the feed and cell net ids.
fn route_nets(
    dev: &mut Device,
    netdb: &mut NetDb,
    placement: &Placement,
    feed_sinks: &[Vec<RouteNode>],
    cell_sinks: &[Vec<RouteNode>],
    region: Rect,
) -> Result<(NetIds, NetIds), SimError> {
    let mut feed_nets = vec![None; feed_sinks.len()];
    for (i, sinks) in feed_sinks.iter().enumerate() {
        if sinks.is_empty() {
            continue;
        }
        let source = PlacedDesign::out_node(placement.feed_locs[i]);
        feed_nets[i] = Some(netdb.route_net(dev, source, sinks, Some(region))?);
    }
    let mut cell_nets = vec![None; cell_sinks.len()];
    for (i, sinks) in cell_sinks.iter().enumerate() {
        if sinks.is_empty() {
            continue;
        }
        let source = PlacedDesign::out_node(placement.cell_locs[i]);
        cell_nets[i] = Some(netdb.route_net(dev, source, sinks, Some(region))?);
    }
    Ok((feed_nets, cell_nets))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtm_fpga::geom::ClbCoord;
    use rtm_fpga::part::Part;
    use rtm_netlist::random::RandomCircuit;
    use rtm_netlist::techmap::map_to_luts;

    fn implement_random(ffs: usize, gates: usize, rows: u16, cols: u16) -> (Device, PlacedDesign) {
        let netlist = RandomCircuit::free_running(ffs, gates, 9).generate();
        let mapped = map_to_luts(&netlist).unwrap();
        let mut dev = Device::new(Part::Xcv200);
        let region = Rect::new(ClbCoord::new(2, 2), rows, cols);
        let placed = implement(&mut dev, &mapped, region).unwrap();
        (dev, placed)
    }

    #[test]
    fn implements_small_circuit() {
        let (dev, placed) = implement_random(6, 24, 10, 10);
        // Every configured cell location holds a used cell on the device.
        for (i, loc) in placed.placement.cell_locs.iter().enumerate() {
            let clb = dev.clb(loc.0).unwrap();
            assert!(
                clb.cells[loc.1].is_used(),
                "cell {i} at {:?} not configured",
                loc
            );
        }
        // Every net's sinks are reachable on the device.
        for (_, net) in placed.netdb.nets() {
            let reached = dev.trace_downstream(net.source);
            for sink in net.sinks() {
                assert!(
                    reached.contains(&sink),
                    "{sink} unreachable from {}",
                    net.source
                );
            }
        }
    }

    #[test]
    fn nets_stay_within_region() {
        let (_, placed) = implement_random(6, 24, 10, 10);
        let region = placed.placement.region;
        for (_, net) in placed.netdb.nets() {
            for node in net.nodes() {
                assert!(region.contains(node.tile));
            }
        }
    }

    #[test]
    fn output_locs_resolve() {
        let (_, placed) = implement_random(4, 16, 10, 10);
        let outs = placed.output_locs();
        assert_eq!(outs.len(), placed.design.outputs.len());
    }

    #[test]
    fn initial_state_written() {
        let (dev, placed) = implement_random(8, 16, 10, 10);
        for (i, cell) in placed.design.cells.iter().enumerate() {
            if cell.storage.is_sequential() {
                let loc = placed.cell_loc(i);
                assert_eq!(dev.cell_state(loc.0, loc.1).unwrap(), cell.init);
            }
        }
    }

    #[test]
    fn medium_circuit_routes() {
        // ~150 cells over a 16x16 region exercises congestion handling.
        let (_, placed) = implement_random(30, 100, 16, 16);
        assert!(placed.netdb.nets().count() > 50);
    }
}
